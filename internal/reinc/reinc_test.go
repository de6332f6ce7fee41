package reinc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/faults"
	"newtos/internal/proc"
)

type dummy struct {
	restarts *atomic.Int32
}

func (d *dummy) Init(rt *proc.Runtime, restart bool) error {
	if restart {
		d.restarts.Add(1)
	}
	return nil
}
func (d *dummy) Poll(now time.Time) bool          { return false }
func (d *dummy) Deadline(now time.Time) time.Time { return time.Time{} }
func (d *dummy) Stop()                            {}

func startChild(t *testing.T, m *Monitor, name string) (*proc.Proc, *atomic.Int32) {
	t.Helper()
	var restarts atomic.Int32
	p := proc.New(name, func() proc.Service { return &dummy{restarts: &restarts} },
		m.OnCrash())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	m.Adopt(p)
	return p, &restarts
}

func TestCrashTriggersRestart(t *testing.T) {
	m := NewMonitor(Config{HeartbeatInterval: 5 * time.Millisecond, HeartbeatMiss: 100 * time.Millisecond})
	m.Start()
	defer m.Stop()
	p, restarts := startChild(t, m, "victim")
	defer p.Shutdown()

	p.Fault().Arm(faults.Crash)
	deadline := time.Now().Add(2 * time.Second)
	for restarts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if restarts.Load() != 1 {
		t.Fatalf("restarts = %d", restarts.Load())
	}
	if p.Status() != proc.StatusRunning {
		t.Fatalf("status = %v", p.Status())
	}
	evs := m.Events()
	if len(evs) != 1 || evs[0].Name != "victim" || evs[0].Hang || !evs[0].Injected {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].RecoveredAt.Before(evs[0].DetectedAt) {
		t.Fatal("recovery before detection")
	}
}

func TestHangDetectedByHeartbeat(t *testing.T) {
	const miss = 50 * time.Millisecond
	m := NewMonitor(Config{HeartbeatInterval: 5 * time.Millisecond, HeartbeatMiss: miss})
	m.Start()
	defer m.Stop()
	p, restarts := startChild(t, m, "hung")
	defer p.Shutdown()

	p.Fault().Arm(faults.Hang)
	// The hang parks inside a step: the child reads busy from the step's
	// start until the monitor resets it.
	var since time.Time
	deadline := time.Now().Add(3 * time.Second)
	for since.IsZero() && restarts.Load() == 0 && time.Now().Before(deadline) {
		since = p.BusySince()
		time.Sleep(time.Millisecond)
	}
	if since.IsZero() {
		t.Fatal("the hung child never read busy")
	}
	for restarts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if restarts.Load() == 0 {
		t.Fatal("hung child never reset")
	}
	// The monitor records the event after the restart completes, so the
	// restart counter can lead the event log by a beat: wait for the
	// record rather than racing the append.
	var evs []Event
	for len(evs) == 0 && time.Now().Before(deadline) {
		evs = m.Events()
		time.Sleep(time.Millisecond)
	}
	if len(evs) == 0 || !evs[0].Hang {
		t.Fatalf("events = %+v", evs)
	}
	if busy := evs[0].DetectedAt.Sub(since); busy <= miss {
		t.Fatalf("convicted after %v busy in one step, want more than HeartbeatMiss %v", busy, miss)
	}
}

// TestLateSweepConvictsNobody: the monitor judges staleness on its own
// clock. When the whole process stalls for several HeartbeatMiss, the sweep
// that finally runs finds every heartbeat that stale — and is itself that
// late, which is the tell: it must restart nobody. A child that really is
// hung is still convicted by sweeps that come on time. The test plays the
// loop itself, calling sweep with the instants it wants.
func TestLateSweepConvictsNobody(t *testing.T) {
	const interval, miss = 5 * time.Millisecond, 50 * time.Millisecond
	stalled := NewMonitor(Config{HeartbeatInterval: interval, HeartbeatMiss: miss})
	a, aRestarts := startChild(t, stalled, "a")
	defer a.Shutdown()
	b, bRestarts := startChild(t, stalled, "b")
	defer b.Shutdown()

	now := time.Now()
	stalled.sweep(now)
	stalled.sweep(now.Add(5 * miss)) // every heartbeat now reads ~5 misses old
	if n, evs := aRestarts.Load()+bRestarts.Load(), stalled.Events(); n != 0 || len(evs) != 0 {
		t.Fatalf("a sweep that was itself %v late restarted %d healthy children: %+v", 5*miss, n, evs)
	}

	// On-time sweeps, on a monitor whose clock was not wound forward.
	m := NewMonitor(Config{HeartbeatInterval: interval, HeartbeatMiss: miss})
	m.Adopt(a)
	m.Adopt(b)
	a.Fault().Arm(faults.Hang)
	for deadline := time.Now().Add(3 * time.Second); aRestarts.Load() == 0 && time.Now().Before(deadline); {
		m.sweep(time.Now())
		time.Sleep(interval)
	}
	evs := m.Events()
	if aRestarts.Load() != 1 || bRestarts.Load() != 0 || len(evs) != 1 || evs[0].Name != "a" || !evs[0].Hang {
		t.Fatalf("hung a restarted %d times, healthy b %d times, events %+v; want only a convicted, once",
			aRestarts.Load(), bRestarts.Load(), evs)
	}
}

func TestRepeatedCrashesKeepRecovering(t *testing.T) {
	m := NewMonitor(Config{HeartbeatInterval: 5 * time.Millisecond})
	m.Start()
	defer m.Stop()
	p, restarts := startChild(t, m, "flappy")
	defer p.Shutdown()
	for i := 0; i < 3; i++ {
		want := int32(i + 1)
		// Wait for a live fault point of the current incarnation.
		deadline := time.Now().Add(2 * time.Second)
		for p.Status() != proc.StatusRunning && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		f := p.Fault()
		if f == nil {
			t.Fatal("no fault point")
		}
		f.Arm(faults.Crash)
		for restarts.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if restarts.Load() < want {
			t.Fatalf("round %d: restarts = %d", i, restarts.Load())
		}
	}
}

func TestMonitorStopIdempotent(t *testing.T) {
	m := NewMonitor(Config{})
	m.Start()
	m.Start()
	m.Stop()
	m.Stop()
}

var _ = sync.Mutex{}
