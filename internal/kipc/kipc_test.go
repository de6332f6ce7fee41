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
	if _, err := a.Receive(time.Millisecond); !errors.Is(err, ErrClosed) {
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
	m, err := b.Receive(time.Second)
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
	if _, err := b.Receive(time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sender still blocked after receive")
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

func TestGrantDataIsCopied(t *testing.T) {
	k := newTestKernel()
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	buf := []byte{1, 2, 3}
	go func() { _ = a.Send(b.ID(), Msg{Type: 1, Data: buf}) }()
	m, err := b.Receive(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // sender mutates after delivery
	if m.Data[0] != 1 {
		t.Fatal("grant data aliased, not copied")
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
	for i := 0; i < 2; i++ {
		go func() { _ = a.Send(b.ID(), Msg{}) }()
	}
	deadline := time.Now().Add(time.Second)
	for w.n.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := w.n.Load(); n < 2 {
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
	go func() {
		m, _ := b.Receive(time.Second)
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

// BenchmarkKernelPingPong measures a full synchronous round trip between
// two endpoints — the cost the paper's fast path avoids entirely.
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
			if m.Type == 0xdead {
				return
			}
			_ = srv.Send(m.From, Msg{Type: m.Type})
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(srv.ID(), Msg{Type: 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := cli.Receive(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = cli.Send(srv.ID(), Msg{Type: 0xdead})
	<-done
}
