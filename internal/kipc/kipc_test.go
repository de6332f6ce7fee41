package kipc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"newtos/internal/msg"
	"newtos/internal/shm"
)

func newTestKernel() *Kernel {
	return New(Config{}) // zero costs: tests exercise semantics, not timing
}

func TestRegisterLookup(t *testing.T) {
	k := newTestKernel()
	a, err := k.Register("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := k.Lookup("a")
	if !ok || id != a.ID() {
		t.Fatalf("lookup = %d, %v", id, ok)
	}
	// Re-registering the same name revokes the old endpoint (a restarted
	// incarnation takes over).
	a2, err := k.Register("a", nil)
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if id2, _ := k.Lookup("a"); id2 != a2.ID() || id2 == a.ID() {
		t.Fatalf("lookup after re-register = %d", id2)
	}
	if _, err := a.Receive(time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("old endpoint still alive: %v", err)
	}
	if _, ok := k.Lookup("nope"); ok {
		t.Fatal("lookup of missing name succeeded")
	}
}

// TestSendReceiveRendezvous: a message arrives with its request as sent and
// the kernel's record of who sent it, whatever the sender put in From.
func TestSendReceiveRendezvous(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	req := msg.Req{ID: 7, Op: msg.OpSockSend, Arg: [4]uint64{1, 2}}
	if err := a.Send(b.ID(), Msg{From: 999, Req: req}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Receive(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != a.ID() || m.Req != req {
		t.Fatalf("got %+v from %d, sent %+v from %d", m.Req, m.From, req, a.ID())
	}
}

// TestGrantDataIsCopied: the kernel copies the message into the receiver's
// queue, so the sender's writes after Send returns do not reach the receiver.
func TestGrantDataIsCopied(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	sent := Msg{Req: msg.Req{ID: 1, Arg: [4]uint64{1}}}
	sent.Req.SetChain([]shm.RichPtr{{Pool: 1, Len: 3}})
	want := sent.Req
	if err := a.Send(b.ID(), sent); err != nil {
		t.Fatal(err)
	}
	sent.Req.Ptrs[0].Len, sent.Req.Arg[0] = 99, 99 // sender mutates after the send
	m, err := b.Receive(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Req != want {
		t.Fatalf("received %+v, sent %+v: message aliased, not copied", m.Req, want)
	}
}

// TestSendQueuesInFIFOOrder: a send returns before anything receives it,
// and the receiver takes messages oldest first, whoever sent them.
func TestSendQueuesInFIFOOrder(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	c, _ := k.Register("c", nil)
	sends := []struct {
		from *Endpoint
		id   uint64
	}{{a, 1}, {b, 2}, {a, 3}, {b, 4}}
	for _, s := range sends {
		if err := s.from.Send(c.ID(), Msg{Req: msg.Req{ID: s.id}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sends {
		m, err := c.TryReceive()
		if err != nil || m.From != s.from.ID() || m.Req.ID != s.id {
			t.Fatalf("got %d from %d (%v), want %d from %d", m.Req.ID, m.From, err, s.id, s.from.ID())
		}
	}
	if _, err := c.TryReceive(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("receive after the queue drained: %v, want ErrWouldBlock", err)
	}
}

// TestBacklogComesOutInOrder: 10 000 messages, sent while the receiver falls
// behind to a backlog of thousands, come out complete and in order, and the
// drained queue is reset to its head.
func TestBacklogComesOutInOrder(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	const n = 10000
	next := uint64(0)
	recv := func() {
		t.Helper()
		m, err := b.TryReceive()
		if err != nil || m.Req.ID != next {
			t.Fatalf("received %d (%v), want %d", m.Req.ID, err, next)
		}
		next++
	}
	for i := uint64(0); i < n; i++ {
		if err := a.Send(b.ID(), Msg{Req: msg.Req{ID: i}}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 { // the receiver falls behind by two of every three
			recv()
		}
	}
	for next < n {
		recv()
	}
	if _, err := b.TryReceive(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("receive after the backlog drained: %v, want ErrWouldBlock", err)
	}
	if b.head != 0 || len(b.queue) != 0 || cap(b.queue) > keptQueue {
		t.Fatalf("drained queue has head %d, len %d, cap %d; want 0, 0 and at most %d", b.head, len(b.queue), cap(b.queue), keptQueue)
	}
}

func TestReceiveTimeout(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	start := time.Now()
	_, err := a.Receive(25 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("returned too early")
	}
}

// TestInterrupt: an interrupt is one kernel entry and one ring of the
// driver's doorbell, with no message behind it.
func TestInterrupt(t *testing.T) {
	k := New(Config{TrapCost: 2 * time.Millisecond})
	w := &testWaker{}
	start := time.Now()
	k.Interrupt(w)
	if took := time.Since(start); took < 2*time.Millisecond {
		t.Fatalf("interrupt charged %v, want at least one trap (2ms)", took)
	}
	if n := w.n.Load(); n != 1 {
		t.Fatalf("driver rung %d times, want 1", n)
	}
}

// TestCloseDropsQueuedMessages: closing an endpoint drops what was queued
// to it; its receiver and any later sender get ErrClosed, and the name is
// free for a new incarnation.
func TestCloseDropsQueuedMessages(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	for i := 0; i < 3; i++ {
		if err := a.Send(b.ID(), Msg{}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if _, err := b.TryReceive(); !errors.Is(err, ErrClosed) {
		t.Fatalf("receive on the closed endpoint: %v, want ErrClosed", err)
	}
	if _, err := b.Receive(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("blocking receive on the closed endpoint: %v, want ErrClosed", err)
	}
	if err := a.Send(b.ID(), Msg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to the closed endpoint: %v, want ErrClosed", err)
	}
	b2, err := k.Register("b", nil)
	if err != nil {
		t.Fatalf("re-register after close: %v", err)
	}
	if _, err := b2.TryReceive(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("the new incarnation inherited a message: %v", err)
	}
}

// testWaker counts rings atomically: the kernel rings it from the sender's
// goroutine while the test goroutine reads the count.
type testWaker struct{ n atomic.Int32 }

func (w *testWaker) Ring() { w.n.Add(1) }

func TestWakerRungOnArrival(t *testing.T) {
	k := newTestKernel()
	w := &testWaker{}
	b, _ := k.Register("b", w)
	a, _ := k.Register("a", nil)
	for i := 0; i < 2; i++ {
		if err := a.Send(b.ID(), Msg{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.n.Load(); n != 2 {
		t.Fatalf("waker rung %d times for two sends, want 2", n)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.TryReceive(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.TryReceive(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("third receive: %v, want ErrWouldBlock", err)
	}
}

func TestTrapCostCharged(t *testing.T) {
	k := New(Config{TrapCost: 200 * time.Microsecond})
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	start := time.Now()
	if err := a.Send(b.ID(), Msg{}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 150*time.Microsecond {
		t.Fatal("trap cost not charged on send")
	}
	// The copy of one message's request at 1 ms per KB.
	k = New(Config{CopyCostPerKB: time.Millisecond})
	a, _ = k.Register("a", nil)
	b, _ = k.Register("b", nil)
	start = time.Now()
	if err := a.Send(b.ID(), Msg{}); err != nil {
		t.Fatal(err)
	}
	if took, want := time.Since(start), time.Duration(unsafe.Sizeof(msg.Req{}))*time.Millisecond/1024; took < want {
		t.Fatalf("send charged %v, want the copy of one message (%v)", took, want)
	}
}

// TestPacketRendezvousOnlyOnSingleCore: the per-packet synchronous hand-off
// is Table II row 1's cost; every other configuration calls it for free.
func TestPacketRendezvousOnlyOnSingleCore(t *testing.T) {
	cfg := Config{TrapCost: 50 * time.Millisecond, CopyCostPerKB: 50 * time.Millisecond}
	start := time.Now()
	New(cfg).PacketRendezvous(1024)
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Fatalf("multi-core kernel charged %v for a channel hand-off", took)
	}
	cfg = Config{TrapCost: time.Millisecond, CopyCostPerKB: time.Millisecond, SingleCore: true}
	start = time.Now()
	New(cfg).PacketRendezvous(2048)
	if took, want := time.Since(start), 4*time.Millisecond+2*contextSwitch; took < want {
		t.Fatalf("single-core rendezvous charged %v, want two traps + 2 KB copy + two switches = %v", took, want)
	}
}

// BenchmarkKernelPingPong measures a full round trip between two endpoints
// — the cost the paper's fast path avoids entirely.
func BenchmarkKernelPingPong(b *testing.B) {
	k := New(DefaultConfig())
	cli, _ := k.Register("cli", nil)
	srv, _ := k.Register("srv", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := srv.Receive(0)
			if err != nil {
				return
			}
			if m.Req.Op == msg.OpInvalid {
				return
			}
			_ = srv.Send(m.From, m)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(srv.ID(), Msg{Req: msg.Req{Op: msg.OpPing}}); err != nil {
			b.Fatal(err)
		}
		if _, err := cli.Receive(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = cli.Send(srv.ID(), Msg{})
	<-done
}
