package tcpeng

import (
	"testing"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// A socket's TX buffer lives from its first send until its FIN is
// acknowledged, not until the pcb goes: a closed connection waiting out
// TIME-WAIT holds no buffer.

// checkBufs: no pcb whose FIN is acknowledged holds a buffer once no
// retransmitted copy of its data is left at the NIC.
func checkBufs(t testing.TB, e *Engine) {
	t.Helper()
	for _, p := range e.byID {
		if p.buf != nil && p.finSent && netpkt.SeqLT(p.finSeq, p.sndUna) && p.retxPending == 0 {
			t.Fatalf("pcb %d in %v: FIN acknowledged, nothing at the NIC, buffer still held", p.id, p.state)
		}
	}
}

// trackBufs captures published buffers, as captureBufs does, and forgets
// withdrawn ones.
func trackBufs(e *Engine) bufMap {
	m := captureBufs(e)
	e.cfg.UnpublishBuf = func(sock uint32) { delete(m, sock) }
	return m
}

// poolMapped reports whether buf's backing pool is still in space.
func poolMapped(space *shm.Space, buf *sockbuf.Buf) bool {
	_, err := space.Pool(buf.Pool().ID())
	return err == nil
}

// TestFinAckReleasesTheBuffer: the client's buffer goes when its FIN is
// acknowledged (FIN-WAIT-2), its export is withdrawn and its pool leaves the
// space; the pcb itself stays through TIME-WAIT without one.
func TestFinAckReleasesTheBuffer(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := trackBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(9401)
	pi.sendBytes(pi.a, aBufs, csock, pattern(3*MSS))
	buf := aBufs[csock]
	if got := pi.recvBytes(pi.b, child, 3*MSS); len(got) != 3*MSS {
		t.Fatalf("read %d bytes", len(got))
	}
	if rep := pi.call(pi.a, msg.Req{Op: msg.OpSockClose, Flow: csock}); rep.Status != msg.StatusOK {
		t.Fatalf("close: %d", rep.Status)
	}
	for i := 0; i < 10; i++ {
		pi.step()
	}
	p := pi.a.pcbOf(csock)
	if p.state != StateFinWait2 || p.buf != nil || pi.a.NumBuffers() != 0 || aBufs[csock] != nil || poolMapped(pi.space, buf) {
		t.Fatalf("after the FIN's ACK: %v, buffer held %v, %d tracked, exported %v, pool mapped %v; want FIN-WAIT-2 and none",
			p.state, p.buf != nil, pi.a.NumBuffers(), aBufs[csock] != nil, poolMapped(pi.space, buf))
	}
	pi.call(pi.b, msg.Req{Op: msg.OpSockClose, Flow: child})
	for i := 0; i < 10; i++ {
		pi.step()
	}
	if st, ok := pi.a.SocketState(csock); !ok || st != StateTimeWait {
		t.Fatalf("client in %v (present %v), want TIME-WAIT", st, ok)
	}
	checkBufs(t, pi.a)
	checkBufs(t, pi.b)
}

// TestFinAckWaitsForRetransmitAtNIC: the FIN is acknowledged while a
// retransmitted copy of the data is still at the NIC, which reads it out of
// the buffer's memory (zero-copy TX). The buffer stays until that frame's
// OpIPSendDone, or until an IP restart aborts it.
func TestFinAckWaitsForRetransmitAtNIC(t *testing.T) {
	for _, how := range []string{"send-done", "ip-restart"} {
		w := newOneWay(t, 9402, nil)
		w.aBufs = trackBufs(w.a)
		// The peer's ACKs never come back on the wire: the test hands over
		// the one that matters itself.
		w.fate = func(dir string, _ int, _ []byte) (int, int) {
			if dir == "b->a" {
				return 0, 0
			}
			return 1, 0
		}
		w.sendBytes(w.a, w.aBufs, w.csock, pattern(2*MSS))
		buf := w.aBufs[w.csock]
		w.a.FromFront(msg.Req{ID: 1 << 43, Op: msg.OpSockClose, Flow: w.csock}, w.now)
		for i := 0; i < 10; i++ {
			w.step()
		}
		if !w.rcv.finRcvd {
			t.Fatalf("%s: the FIN never reached the peer", how)
		}

		// The RTO resends the data; the frames stay at the NIC.
		w.now = w.snd.rtoAt
		w.a.Tick(w.now)
		var atNIC []msg.Req
		for _, r := range w.a.DrainToIP() {
			if r.Op == msg.OpIPSend {
				atNIC = append(atNIC, r)
			}
		}
		if w.snd.retxPending == 0 || len(atNIC) == 0 {
			t.Fatalf("%s: RTO left %d frames at the NIC, retxPending %d", how, len(atNIC), w.snd.retxPending)
		}

		// The peer acknowledges everything, FIN included.
		th := netpkt.TCPHeader{
			SrcPort: w.snd.remotePort, DstPort: w.snd.localPort,
			Seq: w.rcv.sndNxt, Ack: w.snd.sndNxt, Flags: netpkt.TCPAck, Window: 65535,
		}
		ack := make([]byte, th.MarshalLen())
		th.Marshal(ack)
		w.deliver(w.a, w.bIP, [][]byte{ack})
		if w.snd.state != StateFinWait2 {
			t.Fatalf("%s: client in %v after the ACK of its FIN, want FIN-WAIT-2", how, w.snd.state)
		}
		if w.snd.buf == nil || !poolMapped(w.space, buf) || w.aBufs[w.csock] == nil {
			t.Fatalf("%s: buffer released with a retransmitted frame still at the NIC", how)
		}
		checkBufs(t, w.a)

		switch how {
		case "send-done":
			for _, r := range atNIC {
				if w.snd.retxPending > 0 && w.snd.buf == nil {
					t.Fatal("send-done: buffer released before the last retransmitted frame completed")
				}
				w.a.FromIP(msg.Req{ID: r.ID, Op: msg.OpIPSendDone, Status: msg.StatusOK}, w.now)
			}
		case "ip-restart":
			w.a.OnIPRestart()
		}
		if w.snd.buf != nil || poolMapped(w.space, buf) || w.aBufs[w.csock] != nil || w.a.NumBuffers() != 0 {
			t.Fatalf("%s: buffer still held after the last frame left the NIC", how)
		}
		checkBufs(t, w.a)
	}
}

// TestClosedPcbWithoutBufferCrossesHandoff: FIN-WAIT-2 and TIME-WAIT pcbs,
// which hold no buffer, round-trip through HandoffState and Restore: no
// handle is asked for, none is adopted, and the pcb keeps its state.
func TestClosedPcbWithoutBufferCrossesHandoff(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := trackBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(9403)
	pi.sendBytes(pi.a, aBufs, csock, pattern(MSS))
	pi.recvBytes(pi.b, child, MSS)
	pi.call(pi.a, msg.Req{Op: msg.OpSockClose, Flow: csock})
	for i := 0; i < 10; i++ {
		pi.step()
	}
	for _, want := range []State{StateFinWait2, StateTimeWait} {
		if want == StateTimeWait {
			pi.call(pi.b, msg.Req{Op: msg.OpSockClose, Flow: child})
			for i := 0; i < 10; i++ {
				pi.step()
			}
		}
		_, bufs, err := pi.a.HandoffState()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := bufs[csock]; ok {
			t.Fatalf("%v: the image carries a buffer handle", want)
		}
		pi.swap(&pi.a)
		p := pi.a.pcbOf(csock)
		if p == nil || p.state != want || p.buf != nil || pi.a.NumBuffers() != 0 {
			t.Fatalf("restored %v pcb: %+v, %d buffers held", want, p, pi.a.NumBuffers())
		}
		checkTimers(t, pi.a)
		checkBufs(t, pi.a)
	}
	pi.run(400) // TIME-WAIT expires in the successor
	if st, ok := pi.a.SocketState(csock); ok {
		t.Fatalf("client still present in %v after TIME-WAIT", st)
	}
}

// TestBufEnsureAfterCloseIsRefused: a socket whose FIN is queued can send
// nothing more, so OpSockBufEnsure is NotConn and provisions nothing —
// before the FIN is acknowledged and after, in TIME-WAIT.
func TestBufEnsureAfterCloseIsRefused(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := trackBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(9404)
	pi.a.FromFront(msg.Req{ID: 1 << 43, Op: msg.OpSockClose, Flow: csock}, pi.now)
	ensure := func(when string) {
		t.Helper()
		if rep := pi.call(pi.a, msg.Req{Op: msg.OpSockBufEnsure, Flow: csock}); rep.Status != msg.StatusErrNotConn {
			t.Fatalf("%s: buffer ensure answered %d, want NotConn", when, rep.Status)
		}
		if p := pi.a.pcbOf(csock); p.buf != nil || aBufs[csock] != nil || pi.a.NumBuffers() != 0 {
			t.Fatalf("%s: a buffer was provisioned", when)
		}
	}
	ensure("FIN queued")
	pi.call(pi.b, msg.Req{Op: msg.OpSockClose, Flow: child})
	for i := 0; i < 10; i++ {
		pi.step()
	}
	if st, _ := pi.a.SocketState(csock); st != StateTimeWait {
		t.Fatalf("client in %v, want TIME-WAIT", st)
	}
	ensure("TIME-WAIT")
}
