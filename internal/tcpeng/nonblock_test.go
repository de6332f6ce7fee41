package tcpeng

import (
	"testing"

	"newtos/internal/msg"
	"newtos/internal/shm"
)

// setNonblock puts a socket in stack-level nonblocking mode via the op.
func (pi *pipe) setNonblock(e *Engine, sock uint32) {
	pi.t.Helper()
	r := msg.Req{Op: msg.OpSockSetFlags, Flow: sock}
	r.Arg[0] = msg.SockNonblock
	if rep := pi.call(e, r); rep.Status != msg.StatusOK {
		pi.t.Fatalf("setflags: %d", rep.Status)
	}
}

// takeEvents pops and returns the accumulated OpSockEvent bits for sock on
// the given engine's front queue.
func (pi *pipe) takeEvents(e *Engine, sock uint32) uint64 {
	front := &pi.aFront
	if e == pi.b {
		front = &pi.bFront
	}
	var bits uint64
	kept := (*front)[:0]
	for _, r := range *front {
		if r.Op == msg.OpSockEvent && r.Flow == sock {
			bits |= r.Arg[0]
			continue
		}
		kept = append(kept, r)
	}
	*front = kept
	return bits
}

// TestNonblockRecvReadableEdge: a nonblocking recv on an empty queue
// answers EAGAIN instead of parking; the empty→nonempty transition then
// publishes exactly one EvReadable edge, after which the recv drains data.
func TestNonblockRecvReadableEdge(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	csock, child := pi.connectPair(8080)
	pi.setNonblock(pi.b, child)
	pi.takeEvents(pi.b, child) // drop the arming announcement

	rep := pi.call(pi.b, msg.Req{Op: msg.OpSockRecv, Flow: child})
	if rep.Status != msg.StatusErrAgain {
		t.Fatalf("nonblock recv on empty queue: status %d, want EAGAIN", rep.Status)
	}

	pi.sendBytes(pi.a, aBufs, csock, []byte("edge"))
	pi.run(50)
	if ev := pi.takeEvents(pi.b, child); ev&msg.EvReadable == 0 {
		t.Fatalf("no EvReadable edge after data arrival (bits %#x)", ev)
	}
	rep = pi.call(pi.b, msg.Req{Op: msg.OpSockRecv, Flow: child})
	if rep.Op != msg.OpSockRecvData || rep.Arg[0] != 4 {
		t.Fatalf("recv after edge: op %v total %d", rep.Op, rep.Arg[0])
	}
}

// TestNonblockAcceptReadyEdge: a nonblocking accept with no queued child
// answers EAGAIN; an established child publishes EvAcceptReady; accept then
// returns the child.
func TestNonblockAcceptReadyEdge(t *testing.T) {
	pi := newPipe(t, false)
	rep := pi.call(pi.b, msg.Req{Op: msg.OpSockCreate})
	lsock := rep.Flow
	r := msg.Req{Op: msg.OpSockBind, Flow: lsock}
	r.Arg[0] = 8081
	pi.call(pi.b, r)
	pi.call(pi.b, msg.Req{Op: msg.OpSockListen, Flow: lsock})
	pi.setNonblock(pi.b, lsock)

	rep = pi.call(pi.b, msg.Req{Op: msg.OpSockAccept, Flow: lsock})
	if rep.Status != msg.StatusErrAgain {
		t.Fatalf("nonblock accept: status %d, want EAGAIN", rep.Status)
	}

	rep = pi.call(pi.a, msg.Req{Op: msg.OpSockCreate})
	csock := rep.Flow
	conn := msg.Req{Op: msg.OpSockConnect, Flow: csock}
	conn.Arg[0] = uint64(pi.bIP.U32())
	conn.Arg[1] = 8081
	if rep = pi.call(pi.a, conn); rep.Status != msg.StatusOK {
		t.Fatalf("connect: %d", rep.Status)
	}
	pi.run(50)
	if ev := pi.takeEvents(pi.b, lsock); ev&msg.EvAcceptReady == 0 {
		t.Fatalf("no EvAcceptReady edge after handshake (bits %#x)", ev)
	}
	rep = pi.call(pi.b, msg.Req{Op: msg.OpSockAccept, Flow: lsock})
	if rep.Status != msg.StatusOK || rep.Arg[0] == 0 {
		t.Fatalf("accept after edge: status %d child %d", rep.Status, rep.Arg[0])
	}
}

// TestNonblockConnectLifecycle: the nonblocking connect replies EAGAIN,
// completes the handshake in the background, publishes EvWritable, and the
// connect poll then reports success carrying the engine-chosen local port.
func TestNonblockConnectLifecycle(t *testing.T) {
	pi := newPipe(t, false)
	rep := pi.call(pi.b, msg.Req{Op: msg.OpSockCreate})
	lsock := rep.Flow
	r := msg.Req{Op: msg.OpSockBind, Flow: lsock}
	r.Arg[0] = 8082
	pi.call(pi.b, r)
	pi.call(pi.b, msg.Req{Op: msg.OpSockListen, Flow: lsock})

	rep = pi.call(pi.a, msg.Req{Op: msg.OpSockCreate})
	csock := rep.Flow
	pi.setNonblock(pi.a, csock)

	conn := msg.Req{Op: msg.OpSockConnect, Flow: csock}
	conn.Arg[0] = uint64(pi.bIP.U32())
	conn.Arg[1] = 8082
	if rep = pi.call(pi.a, conn); rep.Status != msg.StatusErrAgain {
		t.Fatalf("nonblock connect first call: status %d, want EAGAIN (in progress)", rep.Status)
	}
	pi.run(100)
	if ev := pi.takeEvents(pi.a, csock); ev&msg.EvWritable == 0 {
		t.Fatalf("no EvWritable edge after handshake (bits %#x)", ev)
	}
	if rep = pi.call(pi.a, conn); rep.Status != msg.StatusOK {
		t.Fatalf("connect poll after establishment: status %d", rep.Status)
	}
	if rep.Arg[1] == 0 {
		t.Fatal("connect completion did not carry the local port")
	}
	if st, _ := pi.a.SocketState(csock); st != StateEstablished {
		t.Fatalf("state %v, want established", st)
	}
}

// TestNonblockConnectRefusedPoll: a RST during the nonblocking handshake
// parks the failure on the pcb; EvError fires and the poll reports the
// refusal instead of leaving the app spinning on EAGAIN forever.
func TestNonblockConnectRefusedPoll(t *testing.T) {
	pi := newPipe(t, false)
	rep := pi.call(pi.a, msg.Req{Op: msg.OpSockCreate})
	csock := rep.Flow
	pi.setNonblock(pi.a, csock)

	conn := msg.Req{Op: msg.OpSockConnect, Flow: csock}
	conn.Arg[0] = uint64(pi.bIP.U32())
	conn.Arg[1] = 9999 // nobody listens: b answers RST
	if rep = pi.call(pi.a, conn); rep.Status != msg.StatusErrAgain {
		t.Fatalf("nonblock connect: status %d, want EAGAIN", rep.Status)
	}
	pi.run(100)
	if ev := pi.takeEvents(pi.a, csock); ev&msg.EvError == 0 {
		t.Fatalf("no EvError edge after RST (bits %#x)", ev)
	}
	if rep = pi.call(pi.a, conn); rep.Status != msg.StatusErrRefused {
		t.Fatalf("connect poll after RST: status %d, want refused", rep.Status)
	}

	// The parked failure must be quiescent: no timers may keep firing on
	// the dead pcb (that would spam EvError and re-poison the
	// read-cleared status).
	pi.takeEvents(pi.a, csock)
	pi.run(200)
	if ev := pi.takeEvents(pi.a, csock); ev != 0 {
		t.Fatalf("parked failed pcb kept publishing events: %#x", ev)
	}
	// The status read-cleared: the next connect re-dials (classic
	// wait-for-the-server retry loop), reporting EAGAIN for the fresh
	// in-flight handshake instead of the stale refusal.
	if rep = pi.call(pi.a, conn); rep.Status != msg.StatusErrAgain {
		t.Fatalf("re-dial after read-clear: status %d, want EAGAIN (fresh handshake)", rep.Status)
	}
}

// TestSetFlagsAnnouncesReadiness: arming nonblocking mode re-announces the
// socket's CURRENT readiness, so a poller subscribing after data already
// arrived does not wait for an edge that fired in the past.
func TestSetFlagsAnnouncesReadiness(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	csock, child := pi.connectPair(8083)
	pi.sendBytes(pi.a, aBufs, csock, []byte("early data"))
	pi.run(50)

	pi.setNonblock(pi.b, child)
	if ev := pi.takeEvents(pi.b, child); ev&msg.EvReadable == 0 {
		t.Fatalf("arming did not announce queued data (bits %#x)", ev)
	}
	// The established side is also announced writable.
	pi.setNonblock(pi.a, csock)
	if ev := pi.takeEvents(pi.a, csock); ev&msg.EvWritable == 0 {
		t.Fatalf("arming did not announce writability (bits %#x)", ev)
	}
}

// TestRecycleAnnouncesWritableToAStarvedSender: a sender that found its
// buffer exhausted is owed EvWritable when acknowledged chunks come back; one
// that never came up empty is not, however low its ring ran.
func TestRecycleAnnouncesWritableToAStarvedSender(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	csock, _ := pi.connectPair(8085)
	pi.setNonblock(pi.a, csock)
	if rep := pi.call(pi.a, msg.Req{Op: msg.OpSockBufEnsure, Flow: csock}); rep.Status != msg.StatusOK {
		t.Fatalf("buf ensure: %d", rep.Status)
	}
	buf := aBufs[csock]
	sendAll := func(starve bool) {
		var chain []shm.RichPtr
		for buf.Free() > 1 || starve {
			chunk, ok := buf.Get()
			if !ok {
				break
			}
			ptr, err := buf.Write(chunk, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			chain = append(chain, ptr)
		}
		r := msg.Req{Op: msg.OpSockSend, Flow: csock}
		r.SetChain(chain)
		if rep := pi.call(pi.a, r); rep.Status != msg.StatusOK {
			t.Fatalf("send: %d", rep.Status)
		}
	}
	pi.takeEvents(pi.a, csock) // the arming announcement

	sendAll(false)
	pi.run(100)
	if ev := pi.takeEvents(pi.a, csock); ev&msg.EvWritable != 0 {
		t.Fatalf("recycle announced writable to a sender that never ran dry (bits %#x)", ev)
	}
	sendAll(true)
	pi.run(100)
	if ev := pi.takeEvents(pi.a, csock); ev&msg.EvWritable == 0 {
		t.Fatalf("no EvWritable edge for the starved sender after its chunks were acknowledged (bits %#x)", ev)
	}
}

// TestEOFEdge: the peer's FIN publishes EvEOF alongside EvReadable so a
// poller learns about half-close without a read.
func TestEOFEdge(t *testing.T) {
	pi := newPipe(t, false)
	csock, child := pi.connectPair(8084)
	pi.setNonblock(pi.b, child)
	pi.takeEvents(pi.b, child)

	if rep := pi.call(pi.a, msg.Req{Op: msg.OpSockClose, Flow: csock}); rep.Status != msg.StatusOK {
		t.Fatalf("close: %d", rep.Status)
	}
	pi.run(100)
	if ev := pi.takeEvents(pi.b, child); ev&msg.EvEOF == 0 {
		t.Fatalf("no EvEOF edge after FIN (bits %#x)", ev)
	}
}
