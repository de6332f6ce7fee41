// Package driver implements the NetDrv server: the near-stateless process
// between IP and one simulated network device (paper §V, Table I "Drivers:
// No state, simple restart").
//
// The driver's fast-path work is deliberately tiny — "filling descriptors
// and updating tail pointers of the rings on the device, polling the
// device" — and it owns nothing: receive buffers belong to IP, transmit
// data belongs to the transports and IP. A crashed driver therefore
// restarts by resetting the device and letting IP resupply buffers and
// resubmit in-doubt packets.
package driver

import (
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/nic"
	"newtos/internal/proc"
	"newtos/internal/shm"
	"newtos/internal/wiring"
)

// Server is one driver incarnation.
type Server struct {
	name  string // component name, e.g. "drv.eth0"
	ports *wiring.Ports
	dev   *nic.Device

	rt    *proc.Runtime
	kern  *kipc.Kernel
	outIP *wiring.Edge
	// wired is set by the first rebind of the IP edge: until then there is
	// no channel (and no pool) to move descriptors for, and that first
	// rebind is wiring, not a reason to reset the device.
	wired bool
	// lastLink/linkKnown track the device link state already reported to
	// IP, so Poll forwards each transition as exactly one edge event.
	lastLink  bool
	linkKnown bool
}

var _ proc.Service = (*Server)(nil)

// New creates a driver incarnation bound to dev. ports must be the
// component's persistent edge manager (shared across incarnations).
func New(name string, ports *wiring.Ports, dev *nic.Device) *Server {
	return &Server{name: name, ports: ports, dev: dev}
}

// Init wires the driver: attach IP's channel, route the device's interrupt
// to this incarnation's doorbell through the kernel, and reset the device
// when coming back from a crash (descriptor state is unrecoverable).
func (s *Server) Init(rt *proc.Runtime, restart bool) error {
	s.rt = rt
	s.ports.Begin(rt.Bell)
	s.outIP = wiring.NewEdge(s.ports.Attach("ip-" + s.name))
	s.kern = s.ports.Hub().Kern
	s.dev.SetIRQ(func() { s.kern.Interrupt(rt.Bell) })
	if restart {
		s.dev.Reset()
	}
	return nil
}

// onRewire is the IP edge's restart hook. Either we restarted or IP did. In
// both cases the shared pools we were DMAing into are gone: reset the
// device (the paper: "a crash of IP means de facto restart of the network
// drivers too") and tell IP who we are.
func (s *Server) onRewire() {
	if s.wired {
		s.dev.Reset()
	}
	s.wired = true
	info := msg.Req{Op: msg.OpDrvInfo}
	mac := s.dev.MAC()
	var m uint64
	for i := 0; i < 6; i++ {
		m = m<<8 | uint64(mac[i])
	}
	info.Arg[0] = m
	s.outIP.Push(info)
	s.linkKnown = false // (re)announce link state to the new edge
}

// Poll moves descriptors between the IP channel and the device.
func (s *Server) Poll(now time.Time) bool {
	// Requests from IP, drained in batches: descriptors for a whole batch
	// are posted back-to-back before the device is kicked again.
	worked := s.outIP.Intake(s.onRewire, func(b []msg.Req) {
		for i := range b {
			s.handleIPReq(&b[i])
		}
	})
	if !s.wired {
		return worked
	}

	// Link transitions are edge events IP's route table depends on: report
	// every change exactly once (SetLink raises an interrupt, so the loop
	// wakes promptly; retrain completion is Deadline's).
	if up := s.dev.LinkUp(); !s.linkKnown || up != s.lastLink {
		s.linkKnown, s.lastLink = true, up
		ev := msg.Req{Op: msg.OpLinkEvent}
		if up {
			ev.Arg[0] = 1
		}
		s.outIP.Push(ev)
		worked = true
	}

	// Completions from the device; an interrupt only rang the bell.
	for _, c := range s.dev.CollectTx() {
		st := msg.StatusOK
		if !c.OK {
			st = msg.StatusErrNoBufs
		}
		s.outIP.Push(msg.Req{ID: c.Cookie, Op: msg.OpTxDone, Status: st})
		worked = true
	}
	for _, c := range s.dev.CollectRx() {
		if !c.CsumOK {
			// Hardware-verified checksum failed: drop in the driver; the
			// buffer goes back to IP as consumed.
			continue
		}
		s.kern.PacketRendezvous(c.Len) // Table II row 1 only
		r := msg.Req{Op: msg.OpRxPacket}
		r.SetChain([]shm.RichPtr{c.Ptr})
		r.Arg[0] = uint64(c.Len)
		r.Arg[1] = msg.FlagCsumOK
		s.outIP.Push(r)
		worked = true
	}

	if s.outIP.Flush() {
		worked = true
	}
	return worked
}

// handleIPReq executes one request from IP (TX path).
func (s *Server) handleIPReq(r *msg.Req) {
	switch r.Op {
	case msg.OpTxSubmit:
		s.kern.PacketRendezvous(r.ChainLen()) // Table II row 1 only
		desc := nic.TxDesc{
			Ptrs:    append([]shm.RichPtr(nil), r.Chain()...),
			Cookie:  r.ID,
			SegSize: uint16(r.Arg[1]),
		}
		if r.Arg[0]&msg.OffloadCsumIP != 0 {
			desc.Flags |= nic.TxCsumIP
		}
		if r.Arg[0]&msg.OffloadCsumL4 != 0 {
			desc.Flags |= nic.TxCsumL4
		}
		if r.Arg[0]&msg.OffloadTSO != 0 {
			desc.Flags |= nic.TxTSO
		}
		if err := s.dev.PostTx(desc); err != nil {
			// Ring full or device down: complete with an error so IP
			// can free and (for TCP) let the RTO recover — dropping
			// a packet in the network stack is acceptable.
			s.outIP.Push(msg.Req{ID: r.ID, Op: msg.OpTxDone, Status: msg.StatusErrNoBufs})
		}
	case msg.OpRxSupply:
		if err := s.dev.PostRx(r.Ptrs[0]); err != nil {
			// RX ring full; IP's accounting will retry via recycling.
			return
		}
	case msg.OpDrvReset:
		s.dev.Reset()
	default:
		// Anything else on the IP→driver edge is a protocol violation by
		// the sender; drop it rather than guess (chunk recovery is the
		// sender's RTO/recycling problem, as for real loss).
	}
}

// OutboxDropped reports how many staged requests this loop discarded
// because their target incarnation died before they flushed
// (wiring.DropReporter).
func (s *Server) OutboxDropped() uint64 { return wiring.SumDropped(s.outIP) }

// Deadline is the instant a training link comes up, the one device
// transition that raises no interrupt; zero from that instant on, when the
// device already counts the link as up.
func (s *Server) Deadline(now time.Time) time.Time {
	if at := s.dev.LinkUpAt(); now.Before(at) {
		return at
	}
	return time.Time{}
}

// Stop is a no-op: the driver owns nothing the incarnation must release.
func (s *Server) Stop() {}
