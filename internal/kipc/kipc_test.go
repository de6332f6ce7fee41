package kipc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	if _, err := a.Receive(Any, time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("old endpoint still alive: %v", err)
	}
	if _, ok := k.Lookup("nope"); ok {
		t.Fatal("lookup of missing name succeeded")
	}
}

func TestSendReceiveRendezvous(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)

	var wg sync.WaitGroup
	wg.Add(1)
	delivered := false
	go func() {
		defer wg.Done()
		if err := a.Send(b.ID(), Msg{Type: 7, Args: [6]uint64{1, 2}}); err != nil {
			t.Errorf("send: %v", err)
		}
		delivered = true
	}()
	m, err := b.Receive(Any, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != a.ID() || m.Type != 7 || m.Args[1] != 2 {
		t.Fatalf("msg = %+v", m)
	}
	wg.Wait()
	if !delivered {
		t.Fatal("sender did not unblock")
	}
}

func TestSendBlocksUntilReceived(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	done := make(chan struct{})
	go func() {
		_ = a.Send(b.ID(), Msg{Type: 1})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("send completed before receive (not synchronous)")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := b.Receive(Any, time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sender still blocked after receive")
	}
}

func TestReceiveFromSpecificSource(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	c, _ := k.Register("c", nil)

	go func() { _ = a.Send(c.ID(), Msg{Type: 10}) }()
	go func() { _ = b.Send(c.ID(), Msg{Type: 20}) }()

	// Wait for both to be queued.
	time.Sleep(20 * time.Millisecond)
	m, err := c.Receive(b.ID(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != 20 {
		t.Fatalf("selective receive got type %d", m.Type)
	}
	m, err = c.Receive(a.ID(), time.Second)
	if err != nil || m.Type != 10 {
		t.Fatalf("second receive = %+v, %v", m, err)
	}
}

func TestReceiveTimeout(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	start := time.Now()
	_, err := a.Receive(Any, 25*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("returned too early")
	}
}

func TestNotifyNonBlockingAndCoalesced(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	// Multiple notifies coalesce into one bit.
	for i := 0; i < 5; i++ {
		if err := a.Notify(b.ID()); err != nil {
			t.Fatal(err)
		}
	}
	m, err := b.Receive(Any, time.Second)
	if err != nil || m.Type != MsgNotify || m.From != a.ID() {
		t.Fatalf("notify msg = %+v, %v", m, err)
	}
	if _, err := b.TryReceive(Any); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestNotifyBeatsQueuedSend(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	go func() { _ = a.Send(b.ID(), Msg{Type: 1}) }()
	time.Sleep(20 * time.Millisecond)
	_ = a.Notify(b.ID())
	m, err := b.Receive(Any, time.Second)
	if err != nil || m.Type != MsgNotify {
		t.Fatalf("first = %+v, %v (notifications must have priority)", m, err)
	}
	m, err = b.Receive(Any, time.Second)
	if err != nil || m.Type != 1 {
		t.Fatalf("second = %+v, %v", m, err)
	}
}

func TestInterrupt(t *testing.T) {
	k := newTestKernel()
	drv, _ := k.Register("drv", nil)
	if err := k.Interrupt(drv.ID()); err != nil {
		t.Fatal(err)
	}
	m, err := drv.Receive(Hardware, time.Second)
	if err != nil || m.From != Hardware || m.Type != MsgNotify {
		t.Fatalf("irq = %+v, %v", m, err)
	}
}

func TestGrantDataIsCopied(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	buf := []byte{1, 2, 3}
	go func() { _ = a.Send(b.ID(), Msg{Type: 1, Data: buf}) }()
	m, err := b.Receive(Any, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // sender mutates after delivery
	if m.Data[0] != 1 {
		t.Fatal("grant data aliased, not copied")
	}
}

func TestSendRec(t *testing.T) {
	k := newTestKernel()
	cli, _ := k.Register("cli", nil)
	srv, _ := k.Register("srv", nil)
	go func() {
		m, err := srv.Receive(Any, time.Second)
		if err != nil {
			t.Errorf("srv recv: %v", err)
			return
		}
		_ = srv.Send(m.From, Msg{Type: m.Type + 1})
	}()
	rep, err := cli.SendRec(srv.ID(), Msg{Type: 41})
	if err != nil || rep.Type != 42 {
		t.Fatalf("sendrec = %+v, %v", rep, err)
	}
}

func TestCloseUnblocksSenders(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	errc := make(chan error, 1)
	go func() { errc <- a.Send(b.ID(), Msg{Type: 1}) }()
	time.Sleep(20 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("sender got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("sender not unblocked by close")
	}
	// Name released: a new incarnation can register.
	if _, err := k.Register("b", nil); err != nil {
		t.Fatalf("re-register after close: %v", err)
	}
	// Sends to the dead endpoint fail.
	if err := a.Send(b.ID(), Msg{}); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("send to closed: %v", err)
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
	_ = a.Notify(b.ID())
	if w.n.Load() == 0 {
		t.Fatal("waker not rung on notify")
	}
	go func() { _ = a.Send(b.ID(), Msg{}) }()
	time.Sleep(20 * time.Millisecond)
	if w.n.Load() < 2 {
		t.Fatal("waker not rung on send")
	}
	if _, err := b.Receive(Any, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Receive(Any, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTrapCostCharged(t *testing.T) {
	k := New(Config{TrapCost: 200 * time.Microsecond})
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	go func() {
		m, _ := b.Receive(Any, time.Second)
		_ = m
	}()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	if err := a.Send(b.ID(), Msg{}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 150*time.Microsecond {
		t.Fatal("trap cost not charged on send")
	}
}

// TestPacketRendezvousOnlyOnSingleCore: the per-packet synchronous hand-off
// is Table II row 1's cost; every other configuration calls it for free.
func TestPacketRendezvousOnlyOnSingleCore(t *testing.T) {
	cfg := Config{TrapCost: 50 * time.Millisecond, ContextSwitchCost: 50 * time.Millisecond, CopyCostPerKB: 50 * time.Millisecond}
	start := time.Now()
	New(cfg).PacketRendezvous(1024)
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Fatalf("multi-core kernel charged %v for a channel hand-off", took)
	}
	cfg = Config{TrapCost: time.Millisecond, ContextSwitchCost: 2 * time.Millisecond, CopyCostPerKB: time.Millisecond, SingleCore: true}
	start = time.Now()
	New(cfg).PacketRendezvous(2048)
	if took, want := time.Since(start), 8*time.Millisecond; took < want {
		t.Fatalf("single-core rendezvous charged %v, want two traps + 2 KB copy + two switches = %v", took, want)
	}
}

func BenchmarkKernelTrapHot(b *testing.B) {
	k := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		k.TrapHot()
	}
}

func BenchmarkKernelTrapCold(b *testing.B) {
	k := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		k.TrapCold()
	}
}

// BenchmarkKernelPingPong measures a full synchronous round trip between
// two endpoints — the cost the paper's fast path avoids entirely.
func BenchmarkKernelPingPong(b *testing.B) {
	k := New(DefaultConfig())
	cli, _ := k.Register("cli", nil)
	srv, _ := k.Register("srv", nil)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := srv.Receive(Any, 0)
			if err != nil {
				return
			}
			if m.Type == 0xdead {
				return
			}
			_ = srv.Send(m.From, Msg{Type: m.Type})
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.SendRec(srv.ID(), Msg{Type: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = cli.Send(srv.ID(), Msg{Type: 0xdead})
	close(stop)
	<-done
}
