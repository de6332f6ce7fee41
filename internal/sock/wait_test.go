package sock

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// A blocking wrapper over the scripted door, the op it issues, and the edge
// that answers its EAGAIN.
type wrapper struct {
	name string
	op   msg.Op
	edge uint64
	call func(*Socket) error
}

var wrappers = []wrapper{
	{"Recv", msg.OpSockRecv, msg.EvReadable, func(s *Socket) error {
		_, err := s.Recv(make([]byte, 64))
		return err
	}},
	{"Accept", msg.OpSockAccept, msg.EvAcceptReady, func(s *Socket) error {
		_, err := s.Accept()
		return err
	}},
	{"Connect", msg.OpSockConnect, msg.EvWritable, func(s *Socket) error {
		return s.Connect(netpkt.MustIP("10.0.0.2"), 80)
	}},
}

// blockingSocketOverDoor is tcpSocketOverDoor with the wrappers waiting.
func blockingSocketOverDoor(t *testing.T) (*Socket, *tcpDoor) {
	s, door, _ := tcpSocketOverDoor(t)
	s.SetNonblock(false)
	return s, door
}

// start runs call on its own goroutine and waits until the door has
// answered its first op with EAGAIN.
func start(t *testing.T, door *tcpDoor, op msg.Op, call func() error) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- call() }()
	for end := time.Now().Add(2 * time.Second); door.count(op) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%v never reached the door", op)
		}
	}
	return res
}

// result waits for a started call to return.
func result(t *testing.T, res <-chan error) error {
	t.Helper()
	select {
	case err := <-res:
		return err
	case <-time.After(2 * time.Second):
		t.Fatal("the call did not return")
		return nil
	}
}

// With no edge posted, nothing but the deadline ends a blocked call's wait:
// it issues its op once, not once per re-poll.
func TestBlockedCallIssuesOneOpUntilItsDeadline(t *testing.T) {
	const deadline = 1200 * time.Millisecond
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			s, door := blockingSocketOverDoor(t)
			begin := time.Now()
			if err := s.SetDeadline(begin.Add(deadline)); err != nil {
				t.Fatal(err)
			}
			if err := w.call(s); !errors.Is(err, ErrTimeout) {
				t.Fatalf("%s = %v, want ErrTimeout", w.name, err)
			}
			if took := time.Since(begin); took < deadline {
				t.Fatalf("%s returned after %v, before its %v deadline", w.name, took, deadline)
			}
			if n := door.count(w.op); n != 1 {
				t.Fatalf("%s issued %d ops while it waited, want 1", w.name, n)
			}
		})
	}
}

// A blocked call wakes on its edge, re-issues its op once, and succeeds.
// Being ready is not enough: the call has no deadline, and nothing else may
// wake it.
func TestBlockedCallWakesOnItsEdge(t *testing.T) {
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			s, door := blockingSocketOverDoor(t)
			res := start(t, door, w.op, func() error { return w.call(s) })
			pool, err := s.c.hub.Space.NewPool("ip-rx", 2048, 1)
			if err != nil {
				t.Fatal(err)
			}
			door.deliver(t, pool, []byte("data"))
			door.ready(s.ID() + 1)
			select {
			case err := <-res:
				t.Fatalf("%s returned %v before its edge", w.name, err)
			case <-time.After(600 * time.Millisecond):
			}
			door.edge(t, s.ID(), w.edge)
			if err := result(t, res); err != nil {
				t.Fatalf("%s after its edge: %v", w.name, err)
			}
			if n := door.count(w.op); n != 2 {
				t.Fatalf("%s issued %d ops, want the one answered EAGAIN and the one after the edge", w.name, n)
			}
		})
	}
}

// Close ends every wait with ErrClosed, a Send's on an exhausted ring too.
func TestCloseEndsEveryWait(t *testing.T) {
	closeEnds := func(t *testing.T, s *Socket, res <-chan error) {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := result(t, res); !errors.Is(err, ErrClosed) {
			t.Fatalf("after Close: %v, want ErrClosed", err)
		}
	}
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			s, door := blockingSocketOverDoor(t)
			closeEnds(t, s, start(t, door, w.op, func() error { return w.call(s) }))
		})
	}
	t.Run("Send", func(t *testing.T) {
		t.Parallel()
		s, _ := blockingSocketOverDoor(t)
		_, _, res := sendOnExhaustedRing(t, s)
		closeEnds(t, s, res)
	})
}

// sendOnExhaustedRing publishes a TCP send buffer for s, as the engine
// would, takes every chunk out of it, as earlier sends would have, and
// starts a Send. It returns once the Send has found the ring exhausted,
// with the buffer and the chunks taken.
func sendOnExhaustedRing(t *testing.T, s *Socket) (*sockbuf.Buf, []shm.RichPtr, <-chan error) {
	t.Helper()
	buf, err := sockbuf.New(s.c.hub.Space, "tcp.sock", 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.c.hub.Reg.Publish("sockbuf/tcp/"+strconv.Itoa(int(s.ID())), buf)
	var taken []shm.RichPtr
	for {
		ptr, ok := buf.Get()
		if !ok {
			break
		}
		taken = append(taken, ptr)
	}
	buf.TakeStarved() // raised by the draining Get above
	res := make(chan error, 1)
	go func() {
		n, err := s.Send([]byte("payload"))
		if err == nil && n != len("payload") {
			err = errors.New("short send")
		}
		res <- err
	}()
	// The transport's view of the Send: the starved flag its failed Get
	// raises, which the transport takes as "an edge is owed".
	for end := time.Now().Add(2 * time.Second); !buf.TakeStarved(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the Send never found the ring exhausted")
		}
	}
	time.Sleep(20 * time.Millisecond) // from its second look into its wait
	return buf, taken, res
}

// A Send on an exhausted ring returns only after the writable edge the
// transport owes once it recycles: chunks back in the ring do not wake it.
func TestSendOnExhaustedRingWaitsForTheRecycleEdge(t *testing.T) {
	s, door := blockingSocketOverDoor(t)
	buf, taken, res := sendOnExhaustedRing(t, s)
	for _, ptr := range taken {
		buf.Recycle(ptr)
	}
	select {
	case err := <-res:
		t.Fatalf("Send returned %v on chunks back in the ring, before the edge", err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := door.count(msg.OpSockSend); n != 0 {
		t.Fatalf("%d sends reached the door before the edge", n)
	}
	door.edge(t, s.ID(), msg.EvWritable)
	if err := result(t, res); err != nil {
		t.Fatalf("Send after the edge: %v", err)
	}
	if n := door.count(msg.OpSockSend); n != 1 {
		t.Fatalf("%d sends reached the door, want 1", n)
	}
}

// After Close every call returns ErrClosed at once: it issues no op to the
// stack — no buffer ensure either — and takes nothing from the shared TX
// buffer, which the transport may already have released. Closing again is
// ErrClosed too.
func TestUseAfterCloseIsErrClosed(t *testing.T) {
	s, door := blockingSocketOverDoor(t)
	buf, err := sockbuf.New(s.c.hub.Space, "tcp.sock", 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.c.hub.Reg.Publish("sockbuf/tcp/"+strconv.Itoa(int(s.ID())), buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	calls := append(wrappers[:len(wrappers):len(wrappers)],
		wrapper{"Send", msg.OpSockSend, 0, func(s *Socket) error {
			_, err := s.Send([]byte("late"))
			return err
		}},
		wrapper{"SendTo", msg.OpSockSend, 0, func(s *Socket) error {
			_, err := s.SendTo([]byte("late"), netpkt.MustIP("10.0.0.2"), 80)
			return err
		}},
		wrapper{"Close", msg.OpSockClose, 0, func(s *Socket) error { return s.Close() }},
	)
	for _, w := range calls {
		before := door.count(w.op)
		if err := w.call(s); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Close: %v, want ErrClosed", w.name, err)
		}
		if n := door.count(w.op) - before; n != 0 {
			t.Fatalf("%s after Close issued %d ops", w.name, n)
		}
	}
	if n := door.count(msg.OpSockBufEnsure); n != 0 {
		t.Fatalf("%d buffer ensures after Close", n)
	}
	if s.buf != nil || buf.Free() != 2 {
		t.Fatalf("a send after Close attached the buffer (%v) or took chunks (%d of 2 free)", s.buf != nil, buf.Free())
	}
}
