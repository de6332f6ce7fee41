package tcpeng

import (
	"testing"
	"time"

	"newtos/internal/msg"
)

// Regression tests pinning parked-pcb semantics on the timers:
// parkFailed must disarm every timer, so a parked pcb never re-enters
// rtoFire — which would spam EvError edges and re-poison the read-cleared
// connect status — no matter how long the engine keeps ticking.

// TestParkedTimeoutNeverRefires: a nonblocking connect into a blackhole
// exhausts its SYN retries and parks. From that point on, ticking for
// minutes must produce zero retransmissions, zero outbound segments, and
// zero further events for the socket.
func TestParkedTimeoutNeverRefires(t *testing.T) {
	pi := newPipe(t, false)
	rep := pi.call(pi.a, msg.Req{Op: msg.OpSockCreate})
	csock := rep.Flow
	pi.setNonblock(pi.a, csock)
	pi.takeEvents(pi.a, csock)

	conn := msg.Req{ID: 424242, Op: msg.OpSockConnect, Flow: csock}
	conn.Arg[0] = uint64(pi.bIP.U32())
	conn.Arg[1] = 9999
	pi.a.FromFront(conn, pi.now)
	pi.aFront = append(pi.aFront, pi.a.DrainToFront()...)
	pi.a.DrainToIP() // the network eats the SYN

	// Blackhole: tick only engine a, discarding everything it emits, until
	// the handshake gives up and parks (EvError edge).
	parked := false
	for i := 0; i < 5000 && !parked; i++ {
		pi.now = pi.now.Add(5 * time.Millisecond)
		pi.a.Tick(pi.now)
		pi.a.DrainToIP()
		pi.aFront = append(pi.aFront, pi.a.DrainToFront()...)
		if ev := pi.takeEvents(pi.a, csock); ev&msg.EvError != 0 {
			parked = true
		}
	}
	if !parked {
		t.Fatal("connect never gave up into parkFailed")
	}
	if st, ok := pi.a.SocketState(csock); !ok || st != StateClosed {
		t.Fatalf("parked socket state %v, want closed (still visible to the app)", st)
	}

	// The invariant: a parked pcb's timers are all disarmed. Tick for two
	// more minutes — nothing may fire, emit, or announce.
	base := pi.a.Stats()
	for i := 0; i < 1200; i++ {
		pi.now = pi.now.Add(100 * time.Millisecond)
		pi.a.Tick(pi.now)
	}
	if got := pi.a.Stats().Retransmits; got != base.Retransmits {
		t.Fatalf("parked pcb re-entered rtoFire: retransmits %d -> %d", base.Retransmits, got)
	}
	if out := pi.a.DrainToIP(); len(out) != 0 {
		t.Fatalf("parked pcb emitted %d segments", len(out))
	}
	pi.aFront = append(pi.aFront, pi.a.DrainToFront()...)
	if ev := pi.takeEvents(pi.a, csock); ev != 0 {
		t.Fatalf("parked pcb published more events (bits %#x)", ev)
	}
	// The failure is still parked for the app's connect poll (read-clear).
	if rep := pi.call(pi.a, msg.Req{Op: msg.OpSockConnect, Flow: csock}); rep.Status != msg.StatusErrTimedOut {
		t.Fatalf("connect poll after park: %d, want ETIMEDOUT", rep.Status)
	}
}

// TestParkedResetNeverRefires: an established connection that takes an RST
// parks; its RTO/delayed-ACK/TIME-WAIT timers must all be dead afterwards.
func TestParkedResetNeverRefires(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	csock, child := pi.connectPair(8201)
	pi.setNonblock(pi.a, csock)
	pi.takeEvents(pi.a, csock)

	// Replace b with a fresh engine: the connection now exists only on a's
	// side, so a's next segment hits an unknown tuple and draws an RST.
	hdr, _ := pi.space.NewPool("park.hdr", 128, 4096)
	pi.b = New(Config{Space: pi.space, LocalIP: pi.bIP}, hdr)
	_ = child

	// Send a chunk: the data segment arms the RTO, then the RST parks the
	// pcb with its RTO armed — parkFailed must tear that timer down.
	pi.sendBytes(pi.a, aBufs, csock, []byte("in flight"))
	parked := false
	for i := 0; i < 5000 && !parked; i++ {
		pi.step()
		pi.now = pi.now.Add(5 * time.Millisecond)
		pi.a.Tick(pi.now)
		pi.b.Tick(pi.now)
		if ev := pi.takeEvents(pi.a, csock); ev&msg.EvError != 0 {
			parked = true
		}
	}
	if !parked {
		t.Fatal("RST never parked the connection")
	}
	pi.step() // the RST's receive buffer goes home

	base := pi.a.Stats()
	for i := 0; i < 1200; i++ {
		pi.now = pi.now.Add(100 * time.Millisecond)
		pi.a.Tick(pi.now)
	}
	if got := pi.a.Stats().Retransmits; got != base.Retransmits {
		t.Fatalf("parked pcb re-entered rtoFire: retransmits %d -> %d", base.Retransmits, got)
	}
	if out := pi.a.DrainToIP(); len(out) != 0 {
		t.Fatalf("parked pcb emitted %d segments", len(out))
	}
}

// TestRestoredEngineHasNoGhostTimers: crash/recovery must not resurrect
// timers. A restored engine holds only listeners; ticking it far into the
// future fires nothing, emits nothing, and reports no deadline.
func TestRestoredEngineHasNoGhostTimers(t *testing.T) {
	pi := newPipe(t, false)
	var blob []byte
	pi.b.cfg.SaveState = func(b []byte) { blob = b }
	csock, child := pi.connectPair(9321)
	_, _ = csock, child
	if blob == nil {
		t.Fatal("no state persisted")
	}

	hdr, _ := pi.space.NewPool("ghost.hdr", 128, 4096)
	b2 := New(Config{Space: pi.space, LocalIP: pi.bIP}, hdr)
	if err := b2.Restore(blob, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if b2.NumSockets() != 1 {
		t.Fatalf("restored %d sockets, want the listener only", b2.NumSockets())
	}
	now := pi.now
	for i := 0; i < 200; i++ {
		now = now.Add(time.Second)
		b2.Tick(now)
	}
	if got := b2.Stats().Retransmits; got != 0 {
		t.Fatalf("restored engine fired %d ghost retransmits", got)
	}
	if out := b2.DrainToIP(); len(out) != 0 {
		t.Fatalf("restored engine emitted %d segments unprompted", len(out))
	}
	if dl := b2.Deadline(now); !dl.IsZero() {
		t.Fatalf("restored engine reports deadline %v with no live timers", dl)
	}
}
