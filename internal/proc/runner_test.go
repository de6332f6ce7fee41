package proc

import (
	"runtime"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/faults"
)

// oneRunner waits for the runners of earlier tests to exit and sets
// GOMAXPROCS to 1, so the next process to start starts a single runner.
// It returns what restores GOMAXPROCS.
func oneRunner(t *testing.T) (restore func()) {
	noRunners(t)
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// noRunners waits for the runners of earlier tests to exit.
func noRunners(t *testing.T) {
	for give := time.Now().Add(5 * time.Second); running() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatal("the runners of an earlier test never exited")
		}
	}
}

// awaitHang waits until p's live incarnation has been in one step for
// longer than a healthy step takes.
func awaitHang(t *testing.T, p *Proc) {
	t.Helper()
	for give := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if since := p.BusySince(); !since.IsZero() && time.Since(since) > 5*time.Millisecond {
			return
		}
		if time.Now().After(give) {
			t.Fatal("the hang never took hold")
		}
	}
}

// TestRunnerStopWithHungMember shuts down every process the way
// core.Node.Stop does, one after another and with no reincarnation server
// running, while one of them is hung in a step. The one runner is stuck in
// that step, so the others' Shutdowns return only because Shutdown
// replaces a runner stuck that long; the hung one's Release unwinds it.
func TestRunnerStopWithHungMember(t *testing.T) {
	defer oneRunner(t)()
	const members = 3
	procs := make([]*Proc, members)
	svcs := make([]*echoService, members)
	for i := range procs {
		svc := &echoService{}
		svcs[i] = svc
		procs[i] = New("m", func() Service { return svc }, nil)
		if err := procs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	hung := procs[0]
	hung.Fault().Arm(faults.Hang)
	awaitHang(t, hung)

	stopped := make(chan int, members)
	go func() {
		// The co-members first: the order in which their runner is stuck.
		for i := members - 1; i >= 0; i-- {
			procs[i].Shutdown()
			stopped <- i
		}
	}()
	for n := 0; n < members; n++ {
		select {
		case i := <-stopped:
			svc := svcs[i]
			svc.mu.Lock()
			ok := svc.stopped || procs[i] == hung // a released hang unwinds without Stop
			svc.mu.Unlock()
			if !ok {
				t.Errorf("member %d returned from Shutdown without its Stop", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d Shutdowns returned while a member hung", n, members)
		}
	}
}

// TestRunnerIsolateKeepsTheRelayChain: a runner replaced in the middle of
// a hung step hands its index's bell to its replacement, so however many
// hangs the process recovers from, a member's Ring still relays through
// the GOMAXPROCS bells the runners started with.
func TestRunnerIsolateKeepsTheRelayChain(t *testing.T) {
	noRunners(t)
	// The anchor keeps the runners from running out of members, and so
	// from exiting, while the hung one is between incarnations.
	anchor := New("anchor", func() Service { return &echoService{} }, nil)
	p := New("stuck", func() Service { return &echoService{} }, nil)
	for _, q := range []*Proc{anchor, p} {
		if err := q.Start(); err != nil {
			t.Fatal(err)
		}
		defer q.Shutdown()
	}
	runners.mu.Lock()
	bells := append([]*channel.Doorbell(nil), runners.bells...)
	runners.mu.Unlock()
	for i := 0; i < 5; i++ {
		p.Fault().Arm(faults.Hang)
		awaitHang(t, p)
		if !p.Isolate(time.Millisecond) {
			t.Fatalf("hang %d: no runner replaced", i)
		}
		if err := p.Restart(); err != nil { // Release unwinds the hang
			t.Fatal(err)
		}
	}
	runners.mu.Lock()
	defer runners.mu.Unlock()
	if len(runners.bells) != len(bells) {
		t.Fatalf("%d runner bells after the hangs, %d before", len(runners.bells), len(bells))
	}
	for i, r := range runners.active {
		if runners.bells[i] != bells[i] || r != nil && r.bell != bells[i] {
			t.Fatalf("runner %d naps on a bell it did not start with", i)
		}
	}
}

// TestRunnerIdleSweepAllocatesNothing: a sweep over members whose gate
// holds is clock reads, atomic loads, stores and compare-and-swaps.
func TestRunnerIdleSweepAllocatesNothing(t *testing.T) {
	r := &Runner{bell: channel.NewDoorbell()}
	for i := 0; i < 4; i++ {
		p := New("idle", nil, nil)
		r.local = append(r.local, &incarnation{
			p: p, svc: &echoService{}, stepped: make(chan struct{}),
			rt: &Runtime{Bell: channel.NewDoorbell(), Fault: faults.NewPoint("idle", nil)},
		})
	}
	r.sweep() // each member's first step polls, and closes stepped
	if allocs := testing.AllocsPerRun(1000, func() { r.sweep() }); allocs != 0 {
		t.Fatalf("an idle sweep allocates %.1f times", allocs)
	}
}

// TestRunnersExitWhenEmpty: runners start with their first member and are
// gone, goroutine and all, once every process has shut down.
func TestRunnersExitWhenEmpty(t *testing.T) {
	base := runtime.NumGoroutine()
	var procs []*Proc
	var svcs []*echoService
	for i := 0; i < 2*runtime.GOMAXPROCS(0)+1; i++ {
		svc := &echoService{}
		svcs = append(svcs, svc)
		p := New("m", func() Service { return svc }, nil)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	for _, svc := range svcs {
		for give := time.Now().Add(2 * time.Second); svc.polls.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(give) {
				t.Fatal("a member was never polled")
			}
		}
	}
	if n := runtime.NumGoroutine(); n > base+runtime.GOMAXPROCS(0) {
		t.Fatalf("%d goroutines for %d members, %d before: more than one per processor",
			n, len(procs), base)
	}
	for _, p := range procs {
		p.Shutdown()
		if n := p.PastDeadlines(); n != 0 {
			t.Errorf("%d empty Polls left a due deadline", n)
		}
	}
	give := time.Now().Add(2 * time.Second)
	for time.Now().Before(give) && (running() > 0 || runtime.NumGoroutine() > base) {
		time.Sleep(time.Millisecond)
	}
	if n := running(); n > 0 {
		t.Fatalf("%d runners still run", n)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after:\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
}
