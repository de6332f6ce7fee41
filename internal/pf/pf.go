// Package pf is the packet filter server: the channel shell around pfeng.
// It sits in the T junction (paper Figure 3) — IP consults it for every
// inbound (pre-routing) and outbound (post-routing) packet, and because IP
// waits for each verdict, a PF crash loses no packets (Figure 5).
//
// Recovery: the rule configuration is restored from the storage server;
// connection tracking is rebuilt from the flow tables TCP and UDP persist
// (the paper's "querying the TCP and UDP servers", routed through storage).
package pf

import (
	"fmt"
	"strings"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/proc"
	"newtos/internal/wiring"
)

// RulesKey is where PF parks its rule set. The flow dumps it rebuilds
// conntrack from are the transports' keys, found by pfeng.FlowsKeySuffix so
// PF needs no knowledge of which transports exist.
const RulesKey = "pf/rules"

// Server is one PF incarnation.
type Server struct {
	ports *wiring.Ports
	eng   *pfeng.Engine

	ipBox   *wiring.Edge
	scBox   *wiring.Edge
	scratch []msg.Req
}

var _ proc.Service = (*Server)(nil)

// New creates a PF incarnation.
func New(ports *wiring.Ports) *Server {
	return &Server{ports: ports}
}

// Engine exposes the engine for tests and the config API.
func (s *Server) Engine() *pfeng.Engine { return s.eng }

// Init restores configuration and conntrack, then attaches channels.
func (s *Server) Init(rt *proc.Runtime, restart bool) error {
	hub := s.ports.Hub()
	s.eng = pfeng.New(0)
	if restart {
		if blob, ok := hub.Store.Get(RulesKey); ok {
			_ = s.eng.LoadRules(blob)
		}
		// Rebuild dynamic state from the transports' persisted flows:
		// established outgoing connections must keep working after a PF
		// restart. Every transport server persists its own dump; the
		// rebuild is their union.
		now := time.Now()
		for _, key := range hub.Store.Keys("") {
			if !strings.HasSuffix(key, pfeng.FlowsKeySuffix) {
				continue
			}
			if blob, ok := hub.Store.Get(key); ok {
				if flows, err := pfeng.DecodeFlows(blob); err == nil {
					s.eng.RestoreStates(flows, now)
				}
			}
		}
	}
	s.ports.Begin(rt.Bell)
	s.ipBox = wiring.NewEdge(s.ports.Attach("ip-pf"))
	s.scBox = wiring.NewEdge(s.ports.Attach("sc-pf"))
	s.scratch = make([]msg.Req, wiring.ScratchLen)
	return nil
}

// Poll answers verdict queries and configuration requests. Queries are
// drained in batches and the verdicts for the whole batch travel back to IP
// with a single doorbell ring — the T junction pays one wakeup per batch
// per hop.
func (s *Server) Poll(now time.Time) bool {
	if s.ports.StoreWiped() {
		s.persistRules()
	}
	worked := s.ipBox.Intake(s.scratch, nil, func(b []msg.Req) {
		for _, r := range b {
			if r.Op != msg.OpPFQuery {
				continue
			}
			verdict := s.verdict(r, now)
			s.ipBox.Push(msg.Req{ID: r.ID, Op: msg.OpPFVerdict, Status: verdict})
		}
	})
	if s.ipBox.Flush() {
		worked = true
	}

	// Configuration channel (from the SYSCALL server / control plane).
	if s.scBox.Intake(s.scratch, nil, func(b []msg.Req) {
		for _, r := range b {
			s.config(r)
		}
	}) {
		worked = true
	}
	if s.scBox.Flush() {
		worked = true
	}
	return worked
}

func (s *Server) verdict(r msg.Req, now time.Time) int32 {
	view, err := s.ports.Hub().Space.View(r.Ptrs[0])
	if err != nil {
		return 1 // stale packet (owner restarted): block; IP will resubmit
	}
	dir := pfeng.In
	if r.Arg[0] == 1 {
		dir = pfeng.Out
	}
	iface := msg.UnpackIfaceName(r.Arg[1])
	if s.eng.VerdictPacket(dir, iface, view, now) == pfeng.Pass {
		return 0
	}
	return 1
}

// config handles rule management ops. Rules are packed into the request
// args (see UnpackRule).
func (s *Server) config(r msg.Req) {
	switch r.Op {
	case msg.OpPFRuleAdd:
		s.eng.AddRule(UnpackRule(r))
		s.persistRules()
		s.scBox.Push(r.Reply(msg.OpSockReply, msg.StatusOK))
	case msg.OpPFRuleFlush:
		s.eng.Flush()
		s.persistRules()
		s.scBox.Push(r.Reply(msg.OpSockReply, msg.StatusOK))
	case msg.OpPFStats:
		rep := r.Reply(msg.OpSockReply, msg.StatusOK)
		st := s.eng.Stats()
		rep.Arg[0] = st.Passed
		rep.Arg[1] = st.Blocked
		rep.Arg[2] = st.StateHits
		rep.Arg[3] = uint64(s.eng.NumRules())
		s.scBox.Push(rep)
	default:
		// Unknown control op: reply with an error instead of leaving the
		// requester waiting forever.
		s.scBox.Push(r.Reply(msg.OpSockReply, msg.StatusErrInval))
	}
}

func (s *Server) persistRules() {
	s.ports.Hub().Store.Put(RulesKey, s.eng.SaveRules())
}

// OutboxDropped sums the requests PF's edges shed across peer
// reincarnations (wiring.DropReporter).
func (s *Server) OutboxDropped() uint64 { return wiring.SumDropped(s.ipBox, s.scBox) }

// Deadline: PF has no timers.
func (s *Server) Deadline(now time.Time) time.Time { return time.Time{} }

// Stop is a no-op.
func (s *Server) Stop() {}

// MaxRuleIface is how many bytes of Rule.Iface the channel encoding
// carries (Arg[0] bits 24..63); the evaluation's "ethN" names fit. Longer
// names are rejected by PackRule — a silently truncated name would never
// match the full name verdict queries carry, turning a block rule into a
// no-op (fail-open). Use the direct engine API for exotic interface naming.
const MaxRuleIface = 5

// PackRule encodes a rule into a request (channel slots carry no blobs).
// It fails for interface names longer than MaxRuleIface.
func PackRule(rule pfeng.Rule) (msg.Req, error) {
	r := msg.Req{Op: msg.OpPFRuleAdd}
	if len(rule.Iface) > MaxRuleIface {
		return r, fmt.Errorf("pf: rule iface %q exceeds the %d-byte channel encoding", rule.Iface, MaxRuleIface)
	}
	quick := uint64(0)
	if rule.Quick {
		quick = 1
	}
	r.Arg[0] = uint64(rule.Action) | uint64(rule.Dir)<<4 | uint64(rule.Proto)<<8 | quick<<16
	for i := 0; i < MaxRuleIface && i < len(rule.Iface); i++ {
		r.Arg[0] |= uint64(rule.Iface[i]) << (24 + 8*uint(i))
	}
	r.Arg[1] = uint64(rule.Src.U32())<<8 | uint64(rule.SrcBits)
	r.Arg[2] = uint64(rule.Dst.U32())<<8 | uint64(rule.DstBits)
	r.Arg[3] = uint64(rule.SrcPort)<<16 | uint64(rule.DstPort)
	return r, nil
}

// UnpackRule is the inverse of PackRule.
func UnpackRule(r msg.Req) pfeng.Rule {
	var ifb [MaxRuleIface]byte
	n := 0
	for i := 0; i < MaxRuleIface; i++ {
		c := byte(r.Arg[0] >> (24 + 8*uint(i)))
		if c == 0 {
			break
		}
		ifb[i] = c
		n++
	}
	return pfeng.Rule{
		Action:  pfeng.Action(r.Arg[0] & 0xf),
		Dir:     pfeng.Dir(r.Arg[0] >> 4 & 0xf),
		Proto:   uint8(r.Arg[0] >> 8 & 0xff),
		Quick:   r.Arg[0]>>16&1 == 1,
		Iface:   string(ifb[:n]),
		Src:     netpkt.IPFromU32(uint32(r.Arg[1] >> 8)),
		SrcBits: int(r.Arg[1] & 0xff),
		Dst:     netpkt.IPFromU32(uint32(r.Arg[2] >> 8)),
		DstBits: int(r.Arg[2] & 0xff),
		SrcPort: uint16(r.Arg[3] >> 16),
		DstPort: uint16(r.Arg[3]),
	}
}
