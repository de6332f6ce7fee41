package udpeng

import (
	"testing"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
)

// evHarness wraps the plain harness with event capture: the stock call()
// helper discards everything but the matching reply, while these tests
// must observe the OpSockEvent edges interleaved with replies.
type evHarness struct {
	*harness
	events map[uint32]uint64
}

func newEvHarness(t *testing.T) *evHarness {
	return &evHarness{harness: newHarness(t), events: make(map[uint32]uint64)}
}

func (h *evHarness) callEv(r msg.Req) msg.Req {
	h.t.Helper()
	h.next++
	r.ID = h.next
	h.e.FromFront(r)
	var out msg.Req
	found := false
	for _, rep := range h.e.DrainToFront() {
		if rep.Op == msg.OpSockEvent {
			h.events[rep.Flow] |= rep.Arg[0]
			continue
		}
		if rep.ID == r.ID {
			out, found = rep, true
		}
	}
	if !found {
		h.t.Fatalf("no synchronous reply to %v", r.Op)
	}
	return out
}

// drainEvents collects edges produced outside a call (e.g. by deliver).
func (h *evHarness) drainEvents() {
	for _, rep := range h.e.DrainToFront() {
		if rep.Op == msg.OpSockEvent {
			h.events[rep.Flow] |= rep.Arg[0]
		}
	}
}

func (h *evHarness) setNonblock(sock uint32) {
	h.t.Helper()
	r := msg.Req{Op: msg.OpSockSetFlags, Flow: sock}
	r.Arg[0] = msg.SockNonblock
	if rep := h.callEv(r); rep.Status != msg.StatusOK {
		h.t.Fatalf("setflags: %d", rep.Status)
	}
}

// TestUDPNonblockRecvReadableEdge: EAGAIN on an empty queue, one
// EvReadable edge on the empty→nonempty transition, then data.
func TestUDPNonblockRecvReadableEdge(t *testing.T) {
	h := newEvHarness(t)
	s := h.socket()
	if st := h.bind(s, 5000); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	h.setNonblock(s)
	h.events = map[uint32]uint64{} // drop the arming announcement

	rep := h.callEv(msg.Req{Op: msg.OpSockRecv, Flow: s})
	if rep.Status != msg.StatusErrAgain {
		t.Fatalf("nonblock recv: status %d, want EAGAIN", rep.Status)
	}

	h.deliver(netpkt.MustIP("10.0.0.9"), 777, 5000, []byte("dgram"))
	h.drainEvents()
	if h.events[s]&msg.EvReadable == 0 {
		t.Fatalf("no EvReadable edge after delivery (bits %#x)", h.events[s])
	}
	rep = h.callEv(msg.Req{Op: msg.OpSockRecv, Flow: s})
	if rep.Op != msg.OpSockRecvData {
		t.Fatalf("recv after edge: %v", rep.Op)
	}
	if got := netpkt.IPFromU32(uint32(rep.Arg[0])); got != netpkt.MustIP("10.0.0.9") {
		t.Fatalf("source %v", got)
	}
}

// TestUDPSetFlagsAnnouncesReadiness: arming after a datagram queued
// announces EvReadable (and EvWritable — a UDP socket can always try to
// send), so late subscribers never deadlock.
func TestUDPSetFlagsAnnouncesReadiness(t *testing.T) {
	h := newEvHarness(t)
	s := h.socket()
	if st := h.bind(s, 5001); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	h.deliver(netpkt.MustIP("10.0.0.9"), 777, 5001, []byte("queued"))
	h.drainEvents()
	if h.events[s] != 0 {
		t.Fatalf("blocking socket published events: %#x", h.events[s])
	}
	h.setNonblock(s)
	if h.events[s]&msg.EvReadable == 0 || h.events[s]&msg.EvWritable == 0 {
		t.Fatalf("arming announced %#x, want readable|writable", h.events[s])
	}
}

// TestUDPBlockingRecvStillParks: without the nonblock flag the engine
// parks exactly one recv, as before the redesign — the wrapper contract
// ("blocking calls are nonblocking op + event wait") lives in the sock
// library, while in-engine parking stays available to callers that drive the
// engine directly.
func TestUDPBlockingRecvStillParks(t *testing.T) {
	h := newEvHarness(t)
	s := h.socket()
	if st := h.bind(s, 5002); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	h.next++
	parked := msg.Req{ID: h.next, Op: msg.OpSockRecv, Flow: s}
	h.e.FromFront(parked)
	if reps := h.e.DrainToFront(); len(reps) != 0 {
		t.Fatalf("blocking recv on empty queue replied immediately: %v", reps)
	}
	h.deliver(netpkt.MustIP("10.0.0.9"), 777, 5002, []byte("x"))
	found := false
	for _, rep := range h.e.DrainToFront() {
		if rep.ID == parked.ID && rep.Op == msg.OpSockRecvData {
			found = true
		}
		if rep.Op == msg.OpSockEvent {
			t.Fatalf("blocking socket published an event: %#x", rep.Arg[0])
		}
	}
	if !found {
		t.Fatal("parked recv never completed")
	}
}
