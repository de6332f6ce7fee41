// Package pfeng is the packet-filter engine: NetBSD-PF-style rule
// evaluation with stateful connection tracking. The PF server (package pf)
// wraps it in a channel shell, in every placement of the stack.
//
// Rule semantics follow PF: rules are evaluated in order and the LAST
// matching rule wins, unless a matching rule is marked Quick, which ends
// evaluation immediately. An empty rule set passes everything. Stateful
// tracking: a passed outbound flow creates state, and packets matching
// known state pass without consulting the rules — which is exactly the
// dynamic state the paper's PF must rebuild after a crash (§V-D).
package pfeng

import (
	"fmt"
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/staterec"
)

// Action is a rule's (or verdict's) effect.
type Action int

// Actions.
const (
	Pass Action = iota + 1
	Block
)

func (a Action) String() string {
	if a == Pass {
		return "pass"
	}
	return "block"
}

// Dir is the traffic direction a rule applies to.
type Dir int

// Directions.
const (
	In Dir = iota + 1
	Out
	AnyDir
)

// Rule is one filter rule. Zero fields are wildcards.
type Rule struct {
	Action  Action
	Dir     Dir
	Proto   uint8 // 0 = any; netpkt.ProtoTCP / ProtoUDP / ProtoICMP
	Src     netpkt.IPAddr
	SrcBits int // prefix length; 0 with zero Src = any
	Dst     netpkt.IPAddr
	DstBits int
	SrcPort uint16 // 0 = any
	DstPort uint16
	Quick   bool
	// Iface restricts the rule to packets crossing the named interface
	// (inbound: arrival NIC; outbound: egress NIC). Empty matches any —
	// which is every rule written before the stack was multi-homed. Note
	// the channel encoding (pf.PackRule) rejects names over 5 bytes.
	Iface string
}

// Flow is a connection-tracking key (forward direction).
type Flow struct {
	Proto   uint8
	Src     netpkt.IPAddr
	Dst     netpkt.IPAddr
	SrcPort uint16
	DstPort uint16
}

// reverse returns the return-direction flow.
func (f Flow) reverse() Flow {
	return Flow{Proto: f.Proto, Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// Stats counts engine decisions.
type Stats struct {
	Passed, Blocked, StateHits, StatesCreated uint64
}

// stateEntry is one conntrack record: when the flow was last seen and the
// interface it last crossed — multi-homed observability (a failover shows
// up as the entry's interface changing, not as a new flow).
type stateEntry struct {
	seen  time.Time
	iface string
}

// memoSize is how many flows' rule verdicts an engine remembers, direct
// mapped: it covers the active flows of a benchmark node (a few to a few
// dozen) with room for collisions, in 256 × 56 B = 14 KiB, so a memo hit
// stays in cache beside the rule set it replaces a scan of.
const memoSize = 256

// memoEntry is the rule set's verdict on one flow crossing one interface
// in one direction, valid while gen is the engine's rulesGen.
type memoEntry struct {
	gen   uint64
	flow  Flow
	dir   Dir
	act   Action
	iface string
}

// Engine is one packet filter instance. Not safe for concurrent use; it
// lives inside a single-threaded server.
type Engine struct {
	rules      []Rule
	state      map[Flow]stateEntry
	stateTTL   time.Duration
	defaultAct Action
	stats      Stats
	// memo spares a packet the rule scan its flow already paid for: the
	// verdict depends only on the rules and on (dir, iface, flow), so an
	// entry holds until the next rule change bumps rulesGen.
	memo     [memoSize]memoEntry
	rulesGen uint64
}

// New returns an engine with an empty (pass-all) rule set and stateful
// tracking with the given TTL (0 means a 120 s default).
func New(stateTTL time.Duration) *Engine {
	if stateTTL == 0 {
		stateTTL = 120 * time.Second
	}
	return &Engine{
		state:      make(map[Flow]stateEntry),
		stateTTL:   stateTTL,
		defaultAct: Pass,
		rulesGen:   1, // an empty memo entry (gen 0) never matches
	}
}

// AddRule appends a rule.
func (e *Engine) AddRule(r Rule) {
	e.rules = append(e.rules, r)
	e.rulesGen++
}

// Flush removes all rules (state is kept).
func (e *Engine) Flush() {
	e.rules = nil
	e.rulesGen++
}

// NumRules returns the rule count.
func (e *Engine) NumRules() int { return len(e.rules) }

// Stats returns decision counters.
func (e *Engine) Stats() Stats { return e.stats }

// StateIface returns the interface a tracked flow (either direction) last
// crossed; ok is false for unknown flows.
func (e *Engine) StateIface(f Flow) (iface string, ok bool) {
	if ent, hit := e.state[f]; hit {
		return ent.iface, true
	}
	if ent, hit := e.state[f.reverse()]; hit {
		return ent.iface, true
	}
	return "", false
}

// RestoreStates injects conntrack entries (recovery after a crash; the
// paper rebuilds them "by querying the TCP and UDP servers"). Restored
// entries carry no interface until traffic re-stamps them.
func (e *Engine) RestoreStates(flows []Flow, now time.Time) {
	for _, f := range flows {
		e.state[f] = stateEntry{seen: now}
	}
}

// VerdictPacket evaluates a raw IPv4 packet (starting at the IP header)
// crossing iface. Malformed packets are blocked.
func (e *Engine) VerdictPacket(dir Dir, iface string, ipPacket []byte, now time.Time) Action {
	ip, err := netpkt.ParseIPv4(ipPacket, false)
	if err != nil {
		e.stats.Blocked++
		return Block
	}
	flow := Flow{Proto: ip.Proto, Src: ip.Src, Dst: ip.Dst}
	var tcpFlags uint8
	l4 := ipPacket[ip.HeaderLen:]
	switch ip.Proto {
	case netpkt.ProtoTCP:
		th, err := netpkt.ParseTCP(l4)
		if err != nil {
			e.stats.Blocked++
			return Block
		}
		flow.SrcPort, flow.DstPort = th.SrcPort, th.DstPort
		tcpFlags = th.Flags
	case netpkt.ProtoUDP:
		uh, err := netpkt.ParseUDP(l4)
		if err != nil {
			e.stats.Blocked++
			return Block
		}
		flow.SrcPort, flow.DstPort = uh.SrcPort, uh.DstPort
	}
	return e.Verdict(dir, iface, flow, tcpFlags, now)
}

// Verdict evaluates a parsed flow crossing iface. tcpFlags is zero for
// non-TCP.
func (e *Engine) Verdict(dir Dir, iface string, flow Flow, tcpFlags uint8, now time.Time) Action {
	// Known state passes without consulting rules.
	if e.hasState(flow, iface, now) {
		e.stats.StateHits++
		e.stats.Passed++
		return Pass
	}

	act := e.ruleVerdict(dir, iface, flow)
	if act == Block {
		e.stats.Blocked++
		return Block
	}
	e.stats.Passed++
	// Create state for passed outbound connection-initiating traffic:
	// TCP SYN (without ACK) or any UDP datagram.
	if dir == Out {
		create := false
		switch flow.Proto {
		case netpkt.ProtoTCP:
			create = tcpFlags&netpkt.TCPSyn != 0 && tcpFlags&netpkt.TCPAck == 0
		case netpkt.ProtoUDP:
			create = true
		}
		if create {
			e.state[flow] = stateEntry{seen: now, iface: iface}
			e.stats.StatesCreated++
		}
	}
	return Pass
}

// hasState checks (and refreshes) conntrack in both directions. Hits
// re-stamp the entry's interface: state deliberately does NOT pin a flow to
// the interface it was created on, so an established connection keeps
// passing after it fails over to a surviving NIC.
func (e *Engine) hasState(flow Flow, iface string, now time.Time) bool {
	if ent, ok := e.state[flow]; ok {
		if now.Sub(ent.seen) < e.stateTTL {
			e.state[flow] = stateEntry{seen: now, iface: iface}
			return true
		}
		delete(e.state, flow)
	}
	rev := flow.reverse()
	if ent, ok := e.state[rev]; ok {
		if now.Sub(ent.seen) < e.stateTTL {
			e.state[rev] = stateEntry{seen: now, iface: iface}
			return true
		}
		delete(e.state, rev)
	}
	return false
}

// ruleVerdict is the rule set's action on flow crossing iface in dir. The
// rules are scanned once per flow and rule-set generation; later packets
// of the flow read the memo, which is exact because Rule.matches reads
// nothing else.
func (e *Engine) ruleVerdict(dir Dir, iface string, flow Flow) Action {
	m := &e.memo[memoSlot(flow)]
	if m.gen == e.rulesGen && m.flow == flow && m.dir == dir && m.iface == iface {
		return m.act
	}
	act := e.defaultAct
	for i := range e.rules {
		r := &e.rules[i]
		if !r.matches(dir, iface, flow) {
			continue
		}
		act = r.Action
		if r.Quick {
			break
		}
	}
	*m = memoEntry{gen: e.rulesGen, flow: flow, dir: dir, act: act, iface: iface}
	return act
}

// memoSlot hashes a flow to its memo entry (Fibonacci hashing: the
// multiply spreads every input bit into the top byte). The direction is
// left out: a host sees a flow's packets one way, its replies being the
// reverse flow, so both directions share an entry only for a flow whose
// source and destination are the same.
func memoSlot(f Flow) int {
	h := uint64(f.Src.U32())<<32 | uint64(f.Dst.U32())
	h ^= uint64(f.SrcPort)<<40 ^ uint64(f.DstPort)<<16 ^ uint64(f.Proto)
	return int(h * 0x9e3779b97f4a7c15 >> 56)
}

func (r *Rule) matches(dir Dir, iface string, f Flow) bool {
	if r.Dir != AnyDir && r.Dir != 0 && r.Dir != dir {
		return false
	}
	if r.Iface != "" && r.Iface != iface {
		return false
	}
	if r.Proto != 0 && r.Proto != f.Proto {
		return false
	}
	if r.SrcBits > 0 && !f.Src.InSubnet(r.Src, r.SrcBits) {
		return false
	}
	if r.DstBits > 0 && !f.Dst.InSubnet(r.Dst, r.DstBits) {
		return false
	}
	if r.SrcPort != 0 && r.SrcPort != f.SrcPort {
		return false
	}
	if r.DstPort != 0 && r.DstPort != f.DstPort {
		return false
	}
	return true
}

// ruleSet describes the saved rule set (the static configuration the paper
// parks in the storage server).
func ruleSet(c *staterec.Codec, rules *[]Rule) {
	staterec.List(c, rules, 8+8+1+4+8+4+8+2+2+1+4, func(r *Rule) {
		staterec.Num(c, &r.Action)
		staterec.Num(c, &r.Dir)
		staterec.Num(c, &r.Proto)
		c.Bytes(r.Src[:])
		staterec.Num(c, &r.SrcBits)
		c.Bytes(r.Dst[:])
		staterec.Num(c, &r.DstBits)
		staterec.Num(c, &r.SrcPort)
		staterec.Num(c, &r.DstPort)
		c.Bool(&r.Quick)
		c.String(&r.Iface)
	})
}

// SaveRules serializes the rule set.
func (e *Engine) SaveRules() []byte {
	return staterec.Encode(func(c *staterec.Codec) { ruleSet(c, &e.rules) })
}

// LoadRules replaces the rule set from SaveRules output; a blob that does
// not decode leaves the rules as they were.
func (e *Engine) LoadRules(b []byte) error {
	var rules []Rule
	if err := staterec.Decode(b, func(c *staterec.Codec) { ruleSet(c, &rules) }); err != nil {
		return fmt.Errorf("pfeng: decode rules: %w", err)
	}
	e.rules = rules
	e.rulesGen++
	return nil
}

// FlowsKeySuffix ends every storage key that holds a flow dump: each
// transport server parks its own under such a key, and the PF server's
// rebuild is the union of all of them.
const FlowsKeySuffix = "/flows"

// flowDump describes a flow dump: the record a transport server parks in
// the storage server on every connection change, and the PF server reads
// back after its own crash to rebuild conntrack (RestoreStates).
func flowDump(c *staterec.Codec, flows *[]Flow) {
	staterec.List(c, flows, 1+4+4+2+2, func(f *Flow) {
		staterec.Num(c, &f.Proto)
		c.Bytes(f.Src[:])
		c.Bytes(f.Dst[:])
		staterec.Num(c, &f.SrcPort)
		staterec.Num(c, &f.DstPort)
	})
}

// EncodeFlows writes a flow dump.
func EncodeFlows(flows []Flow) []byte {
	return staterec.Encode(func(c *staterec.Codec) { flowDump(c, &flows) })
}

// DecodeFlows reads a flow dump written by EncodeFlows.
func DecodeFlows(b []byte) (flows []Flow, err error) {
	if err = staterec.Decode(b, func(c *staterec.Codec) { flowDump(c, &flows) }); err != nil {
		return nil, fmt.Errorf("pfeng: decode flows: %w", err)
	}
	return flows, nil
}
