package udpeng

import (
	"bytes"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
)

// TestConnectedSocketFiltersSource: a connected UDP socket must only accept
// datagrams from its connected peer (BSD semantics); everything else is
// dropped before it consumes queue space.
func TestConnectedSocketFiltersSource(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	if st := h.bind(sock, 6000); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	peer := netpkt.MustIP("10.0.0.5")
	c := msg.Req{Op: msg.OpSockConnect, Flow: sock}
	c.Arg[0] = uint64(peer.U32())
	c.Arg[1] = 500
	if rep := h.call(c); rep.Status != msg.StatusOK {
		t.Fatalf("connect: %d", rep.Status)
	}

	// Wrong address, right port: dropped and the IP buffer released.
	id := h.deliver(netpkt.MustIP("10.0.0.6"), 500, 6000, []byte("spoof"))
	toIP := h.e.DrainToIP()
	if len(toIP) != 1 || toIP[0].Op != msg.OpIPDeliverDone || toIP[0].ID != id {
		t.Fatalf("wrong-addr datagram not released: %+v", toIP)
	}
	// Right address, wrong port: also dropped.
	h.deliver(peer, 501, 6000, []byte("near miss"))
	h.e.DrainToIP()
	if got := h.e.Stats().DroppedWrongSource; got != 2 {
		t.Fatalf("DroppedWrongSource = %d, want 2", got)
	}

	// The connected peer still gets through, and nothing stray is queued
	// ahead of it.
	h.deliver(peer, 500, 6000, []byte("legit"))
	h.next++
	recv := msg.Req{ID: h.next, Op: msg.OpSockRecv, Flow: sock}
	h.e.FromFront(recv)
	reps := h.e.DrainToFront()
	if len(reps) != 1 || reps[0].Op != msg.OpSockRecvData {
		t.Fatalf("reps = %+v", reps)
	}
	v, err := h.space.View(reps[0].Ptrs[0])
	if err != nil || !bytes.Equal(v, []byte("legit")) {
		t.Fatalf("payload = %q, %v", v, err)
	}

	// An unconnected socket keeps accepting from anyone.
	open := h.socket()
	h.bind(open, 6001)
	h.deliver(netpkt.MustIP("10.0.0.6"), 999, 6001, []byte("anyone"))
	if h.e.Stats().DroppedWrongSource != 2 {
		t.Fatal("unconnected socket filtered a source")
	}
}

// TestHandoffRoundTrip swaps the engine for a successor over the same shm
// space mid-operation: bound/connected sockets, queued datagrams and a
// parked recv must all survive, and readiness must be re-announced.
func TestHandoffRoundTrip(t *testing.T) {
	h := newHarness(t)
	src := netpkt.MustIP("10.0.0.9")

	s1 := h.socket()
	h.bind(s1, 7000)
	h.deliver(src, 40, 7000, []byte("queued")) // sits in s1's recvQ across the swap

	s2 := h.socket()
	h.bind(s2, 7001)
	h.next++
	parked := msg.Req{ID: h.next, Op: msg.OpSockRecv, Flow: s2}
	h.e.FromFront(parked) // parked recv crosses the swap and completes after

	s3 := h.socket()
	h.bind(s3, 7002)
	fl := msg.Req{Op: msg.OpSockSetFlags, Flow: s3}
	fl.Arg[0] = msg.SockNonblock
	if rep := h.call(fl); rep.Status != msg.StatusOK {
		t.Fatalf("setflags: %d", rep.Status)
	}
	h.e.DrainToFront() // consume pre-swap edges

	blob, bufs, err := h.e.HandoffState()
	if err != nil {
		t.Fatal(err)
	}
	nw := New(h.e.cfg, h.e.hdrPool)
	if err := nw.Restore(blob, bufs, time.Time{}); err != nil {
		t.Fatal(err)
	}
	h.e = nw

	if h.e.NumSockets() != 3 {
		t.Fatalf("restored %d sockets", h.e.NumSockets())
	}
	// Readiness re-announced for the nonblocking socket: writable always,
	// spurious edges never lost ones.
	var bits uint64
	for _, rep := range h.e.DrainToFront() {
		if rep.Op == msg.OpSockEvent && rep.Flow == s3 {
			bits |= rep.Arg[0]
		}
	}
	if bits&msg.EvWritable == 0 {
		t.Fatalf("writable edge lost across handoff: bits %#x", bits)
	}

	// The queued datagram is still readable, byte-exact.
	h.next++
	recv := msg.Req{ID: h.next, Op: msg.OpSockRecv, Flow: s1}
	h.e.FromFront(recv)
	reps := h.e.DrainToFront()
	if len(reps) != 1 || reps[0].Op != msg.OpSockRecvData {
		t.Fatalf("reps = %+v", reps)
	}
	if v, err := h.space.View(reps[0].Ptrs[0]); err != nil || !bytes.Equal(v, []byte("queued")) {
		t.Fatalf("payload = %q, %v", v, err)
	}

	// The parked recv completes against its pre-swap request ID.
	h.deliver(src, 41, 7001, []byte("late"))
	reps = h.e.DrainToFront()
	if len(reps) != 1 || reps[0].ID != parked.ID {
		t.Fatalf("parked recv reply = %+v", reps)
	}

	// Port table rebuilt: duplicate bind still refused, close still works.
	dup := h.socket()
	if st := h.bind(dup, 7000); st != msg.StatusErrInUse {
		t.Fatalf("dup bind after handoff: %d", st)
	}
}
