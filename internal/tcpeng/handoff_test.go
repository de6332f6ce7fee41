package tcpeng

import (
	"bytes"
	"testing"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
)

// swap replaces *ep with a successor incarnation built over the same shm
// space and header pool, exactly as tcpsrv does during a live update: the
// predecessor serializes, the successor restores from the blob plus the
// live buffer handles, and the pipe keeps pumping against the new engine.
func (pi *pipe) swap(ep **Engine) {
	pi.t.Helper()
	old := *ep
	blob, bufs, err := old.HandoffState()
	if err != nil {
		pi.t.Fatal(err)
	}
	nw := New(old.cfg, old.hdrPool)
	if err := nw.Restore(blob, bufs, pi.now); err != nil {
		pi.t.Fatal(err)
	}
	*ep = nw
}

// TestHandoffMidTransfer swaps first the receiver and then the sender in
// the middle of a bulk transfer; every byte must arrive exactly once and in
// order across both swaps.
func TestHandoffMidTransfer(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(4242)

	data := make([]byte, 48*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	half := len(data) / 2

	pi.sendBytes(pi.a, aBufs, csock, data[:half])
	pi.swap(&pi.b) // receiver: rcvQ, delayed-ACK state and listener cross over
	checkTimers(t, pi.b)
	got := pi.recvBytes(pi.b, child, half)
	if !bytes.Equal(got, data[:half]) {
		t.Fatal("first half corrupted across receiver swap")
	}

	pi.swap(&pi.a) // sender: un-ACKed stream chunks and RTO state cross over
	checkTimers(t, pi.a)
	pi.sendBytes(pi.a, aBufs, csock, data[half:])
	got = pi.recvBytes(pi.b, child, len(data)-half)
	if !bytes.Equal(got, data[half:]) {
		t.Fatal("second half corrupted across sender swap")
	}

	// The restored listener still owns its port...
	rep := pi.call(pi.b, msg.Req{Op: msg.OpSockCreate})
	r := msg.Req{Op: msg.OpSockBind, Flow: rep.Flow}
	r.Arg[0] = 4242
	if rep = pi.call(pi.b, r); rep.Status != msg.StatusErrInUse {
		t.Fatalf("bind on restored listener port: status %d, want %d", rep.Status, msg.StatusErrInUse)
	}
	// ...and still completes new handshakes.
	rep = pi.call(pi.a, msg.Req{Op: msg.OpSockCreate})
	conn := msg.Req{Op: msg.OpSockConnect, Flow: rep.Flow}
	conn.Arg[0] = uint64(pi.bIP.U32())
	conn.Arg[1] = 4242
	if rep = pi.call(pi.a, conn); rep.Status != msg.StatusOK {
		t.Fatalf("connect to restored listener: %d", rep.Status)
	}
}

// TestHandoffGhostTimers runs a double swap back-to-back while timers are
// armed: each restore leaves the heap holding exactly the armed timers, and
// the second the same census as the first — a ghost entry would double-fire.
func TestHandoffGhostTimers(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(5353)
	pi.sendBytes(pi.a, aBufs, csock, bytes.Repeat([]byte{0xAB}, 8192))

	pi.swap(&pi.a)
	first := checkTimers(t, pi.a)
	pi.swap(&pi.a)
	second := checkTimers(t, pi.a)
	if first != second {
		t.Fatalf("timer census changed across idle swap: %d -> %d", first, second)
	}

	// Timers still fire in the new heap: a retransmission deadline left
	// armed must not strand the connection.
	if got := pi.recvBytes(pi.b, child, 8192); !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 8192)) {
		t.Fatal("payload corrupted across double swap")
	}
}

// TestHandoffReannouncesReadiness: a nonblocking socket with queued data
// must see its readiness edges re-emitted by the successor — the poller may
// have consumed the edge just before the swap, and edges are not
// re-derivable by the receiver. Spurious edges, never lost ones.
func TestHandoffReannouncesReadiness(t *testing.T) {
	checkReannounced(t, func(pi *pipe) { pi.swap(&pi.b) })
}

// TestFrontRestartReannouncesReadiness: a restarted frontdoor never sees the
// edges staged towards its dead incarnation (the edge's restart rule drops
// them), so the engine re-announces current readiness as after a swap.
func TestFrontRestartReannouncesReadiness(t *testing.T) {
	checkReannounced(t, func(pi *pipe) { pi.b.OnFrontRestart() })
}

// checkReannounced readies a nonblocking socket on b, drops every edge it
// has emitted, runs lose, and wants the socket's readable and writable
// levels announced again.
func checkReannounced(t *testing.T, lose func(pi *pipe)) {
	t.Helper()
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(6464)

	fl := msg.Req{Op: msg.OpSockSetFlags, Flow: child}
	fl.Arg[0] = msg.SockNonblock
	if rep := pi.call(pi.b, fl); rep.Status != msg.StatusOK {
		t.Fatalf("setflags: %d", rep.Status)
	}
	pi.sendBytes(pi.a, aBufs, csock, []byte("wake up"))
	for i := 0; i < 50; i++ { // let the payload land in child's rcvQ
		pi.step()
	}

	pi.bFront = nil // drop every earlier edge: b must re-announce
	lose(pi)
	pi.step()

	var bits uint64
	for _, rep := range pi.bFront {
		if rep.Op == msg.OpSockEvent && rep.Flow == child {
			bits |= rep.Arg[0]
		}
	}
	if bits&msg.EvReadable == 0 || bits&msg.EvWritable == 0 {
		t.Fatalf("readiness lost: re-announced bits %#x", bits)
	}
}

// TestHandoffMidRecovery swaps the receiver and then the sender while a hole
// is open: the reassembly queue crosses with its references on the deliver
// cookies (recounted on install, released when the data is read), the
// scoreboard and the recovery episode cross with the pcb, and when the wire
// lets the hole's segment through the stream completes byte-exact.
func TestHandoffMidRecovery(t *testing.T) {
	w := newOneWay(t, 4243, nil)
	hole, open := w.snd.sndNxt+2*MSS, true
	w.fate = func(_ string, _ int, seg []byte) (int, int) {
		if th, err := netpkt.ParseTCP(seg); open && err == nil && th.Seq == hole && len(seg) > th.DataOff {
			return 0, 0
		}
		return 1, 0
	}
	data := pattern(12 * MSS)
	w.sendBytes(w.a, w.aBufs, w.csock, data)
	for i := 0; i < 4; i++ {
		w.step()
	}
	w.swap(&w.b)
	w.swap(&w.a)
	snd, rcv := w.a.pcbOf(w.csock), w.b.pcbOf(w.child)
	if len(rcv.oooQ) == 0 || len(snd.sacked) == 0 || !snd.inRecovery {
		t.Fatalf("after the swaps: %d segments held, %d SACKed ranges, inRecovery %v", len(rcv.oooQ), len(snd.sacked), snd.inRecovery)
	}
	if held := len(w.b.deliverRefs); held != len(rcv.oooQ)+len(rcv.rcvQ) {
		t.Fatalf("successor counts %d deliver cookies for %d queued views", held, len(rcv.oooQ)+len(rcv.rcvQ))
	}
	open = false
	if got := w.recvBytes(w.b, w.child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted at %d across the swaps", firstDiff(got, data))
	}
	if st := w.b.Stats(); st.DropsOOO != 0 {
		t.Errorf("sender re-sent %d segments the receiver held: the scoreboard did not cross", st.DropsOOO)
	}
	w.run(50)
	w.checkNothingLeaked()
}
