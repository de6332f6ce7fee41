package proc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/faults"
)

// echoService counts polls and exposes hooks for tests.
type echoService struct {
	mu        sync.Mutex
	inited    bool
	restarted bool
	stopped   bool
	polls     atomic.Int64
	initErr   error
	initPanic bool
	work      atomic.Int32 // pending "work units"
	deadline  time.Time
	rt        *Runtime
}

func (s *echoService) Init(rt *Runtime, restart bool) error {
	if s.initPanic {
		panic("init exploded")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inited = true
	s.restarted = restart
	s.rt = rt
	return s.initErr
}

func (s *echoService) Poll(now time.Time) bool {
	s.polls.Add(1)
	if s.work.Load() > 0 {
		s.work.Add(-1)
		return true
	}
	return false
}

func (s *echoService) Deadline(now time.Time) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadline
}

func (s *echoService) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
}

func TestStartRunsServiceLoop(t *testing.T) {
	svc := &echoService{}
	p := New("echo", func() Service { return svc }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	if p.Status() != StatusRunning {
		t.Fatalf("status = %v", p.Status())
	}
	deadline := time.Now().Add(time.Second)
	for svc.polls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.polls.Load() == 0 {
		t.Fatal("service never polled")
	}
	svc.mu.Lock()
	if !svc.inited || svc.restarted {
		t.Fatalf("init state: inited=%v restarted=%v", svc.inited, svc.restarted)
	}
	svc.mu.Unlock()
	if since := p.BusySince(); !since.IsZero() && time.Since(since) > time.Second {
		t.Fatalf("one step has run since %v", since)
	}
}

func TestDoubleStartFails(t *testing.T) {
	p := New("x", func() Service { return &echoService{} }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	if err := p.Start(); err == nil {
		t.Fatal("second start succeeded")
	}
}

func TestInitErrorPropagates(t *testing.T) {
	p := New("bad", func() Service { return &echoService{initErr: errors.New("nope")} }, nil)
	if err := p.Start(); err == nil {
		t.Fatal("start with failing init succeeded")
	}
	// Can start again after a failed init.
	p2 := New("ok", func() Service { return &echoService{} }, nil)
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	p2.Shutdown()
}

func TestInitPanicPropagates(t *testing.T) {
	var crashed atomic.Bool
	p := New("boom", func() Service { return &echoService{initPanic: true} }, func(CrashEvent) { crashed.Store(true) })
	if err := p.Start(); err == nil {
		t.Fatal("start with panicking init succeeded")
	}
}

func TestShutdownStopsService(t *testing.T) {
	svc := &echoService{}
	p := New("x", func() Service { return svc }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Shutdown()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if !svc.stopped {
		t.Fatal("Stop not called")
	}
	if p.Status() != StatusStopped {
		t.Fatalf("status = %v", p.Status())
	}
}

func TestCrashReportedAndRestarts(t *testing.T) {
	var events []CrashEvent
	var mu sync.Mutex
	var svcs []*echoService
	factory := func() Service {
		s := &echoService{}
		mu.Lock()
		svcs = append(svcs, s)
		mu.Unlock()
		return s
	}
	p := New("frag", factory, func(ev CrashEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Fault().Arm(faults.Crash)
	deadline := time.Now().Add(2 * time.Second)
	for p.Status() != StatusCrashed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Status() != StatusCrashed {
		t.Fatalf("status = %v", p.Status())
	}
	mu.Lock()
	if len(events) != 1 || !events[0].Injected || events[0].Incarnation != 1 {
		t.Fatalf("events = %+v", events)
	}
	mu.Unlock()
	if p.Crashes() != 1 {
		t.Fatalf("crashes = %d", p.Crashes())
	}

	// Restart comes up in restart mode with a fresh service.
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	mu.Lock()
	if len(svcs) != 2 || !svcs[1].restarted {
		t.Fatalf("second incarnation: %d services, restarted=%v", len(svcs), len(svcs) > 1 && svcs[1].restarted)
	}
	mu.Unlock()
	if p.Incarnation() != 2 {
		t.Fatalf("incarnation = %d", p.Incarnation())
	}
}

func TestHangDetectableViaHeartbeatAndRestart(t *testing.T) {
	p := New("hang", func() Service { return &echoService{} }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if since := p.BusySince(); !since.IsZero() && time.Since(since) > time.Second {
		t.Fatalf("a healthy loop reads busy since %v", since)
	}
	p.Fault().Arm(faults.Hang)
	// The hang parks inside a step, so its busy stamp grows old while the
	// status stays Running.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if since := p.BusySince(); !since.IsZero() && time.Since(since) > 100*time.Millisecond {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if since := p.BusySince(); since.IsZero() || time.Since(since) <= 100*time.Millisecond {
		t.Fatalf("busy stamp did not grow old: %v", since)
	}
	if p.Status() != StatusRunning {
		t.Fatalf("status of the hung loop = %v", p.Status())
	}
	// The supervisor's reaction: Restart abandons the hung incarnation.
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	if p.Status() != StatusRunning {
		t.Fatalf("status after restart = %v", p.Status())
	}
	// The abandoned incarnation's eventual unwind must not disturb the new
	// one.
	time.Sleep(50 * time.Millisecond)
	if p.Status() != StatusRunning || p.Crashes() != 0 {
		t.Fatalf("stale incarnation disturbed: status=%v crashes=%d", p.Status(), p.Crashes())
	}
	if since := p.BusySince(); !since.IsZero() && time.Since(since) > 50*time.Millisecond {
		t.Fatalf("the new incarnation reads busy since %v", since)
	}
}

func TestDoorbellWakesIdleLoop(t *testing.T) {
	svc := &echoService{}
	p := New("sleepy", func() Service { return svc }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	// Let it go idle.
	time.Sleep(20 * time.Millisecond)
	before := svc.polls.Load()
	time.Sleep(20 * time.Millisecond)
	// An idle loop with no deadline naps on the doorbell until the bell
	// below wakes it.
	idlePolls := svc.polls.Load() - before
	if idlePolls != 0 {
		t.Fatalf("%d polls in 20 ms of idleness, want 0", idlePolls)
	}
	// Give it work and ring.
	svc.work.Store(3)
	svc.mu.Lock()
	bell := svc.rt.Bell
	svc.mu.Unlock()
	bell.Ring()
	deadline := time.Now().Add(time.Second)
	for svc.work.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.work.Load() != 0 {
		t.Fatalf("work not drained after ring (idlePolls=%d)", idlePolls)
	}
}

func TestFaultDisarm(t *testing.T) {
	pt := faults.NewPoint("x", nil)
	pt.Arm(faults.Crash)
	pt.Disarm()
	pt.Check() // must not panic
	if pt.Fired() {
		t.Fatal("disarmed point fired")
	}
}
