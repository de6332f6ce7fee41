package reinc

import (
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/faults"
	"newtos/internal/proc"
)

// hoDummy is a minimal Handoffer: state is a counter carried across swaps.
type hoDummy struct {
	dummy
	count int64
}

func (d *hoDummy) Init(rt *proc.Runtime, restart bool) error {
	if rt.Handoff != nil {
		d.count = rt.Handoff.(int64)
		return nil
	}
	return d.dummy.Init(rt, restart)
}

func (d *hoDummy) HandoffState() (any, error) { return d.count, nil }

// TestUpgradeIsPlannedEvent: planned upgrades are their own event kind and
// never count as crashes.
func TestUpgradeIsPlannedEvent(t *testing.T) {
	m := NewMonitor(Config{HeartbeatInterval: 5 * time.Millisecond})
	m.Start()
	defer m.Stop()

	var restarts atomic.Int32
	p := proc.New("svc", func() proc.Service { return &hoDummy{dummy: dummy{restarts: &restarts}} },
		m.OnCrash())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	m.Adopt(p)
	defer p.Shutdown()

	// Several planned upgrades in a row.
	for i := 0; i < 3; i++ {
		if _, err := m.Upgrade("svc"); err != nil {
			t.Fatalf("upgrade %d: %v", i, err)
		}
	}
	if p.Crashes() != 0 {
		t.Fatalf("planned upgrades counted as crashes: %d", p.Crashes())
	}
	evs := m.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %+v", evs)
	}
	for _, ev := range evs {
		if !ev.Planned || ev.Injected || ev.Hang {
			t.Fatalf("upgrade event misclassified: %+v", ev)
		}
		if ev.RecoveredAt.Before(ev.DetectedAt) {
			t.Fatalf("recovery before detection: %+v", ev)
		}
	}

	// A real crash afterwards must still be recovered.
	p.Fault().Arm(faults.Crash)
	deadline := time.Now().Add(2 * time.Second)
	for restarts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if restarts.Load() == 0 {
		t.Fatal("crash after upgrades was not recovered")
	}
	if len(m.Down()) != 0 {
		t.Fatalf("component left down after a recovered crash: %v", m.Down())
	}
}

// TestUpgradeWithoutHandoffIsRefused: a child without handoff support is
// not upgraded: the call fails, the incarnation keeps running, and no event
// is recorded.
func TestUpgradeWithoutHandoffIsRefused(t *testing.T) {
	m := NewMonitor(Config{HeartbeatInterval: 5 * time.Millisecond})
	m.Start()
	defer m.Stop()
	p, restarts := startChild(t, m, "plain")
	defer p.Shutdown()

	if _, err := m.Upgrade("plain"); err == nil {
		t.Fatal("a child that cannot hand off its state was upgraded")
	}
	if p.Status() != proc.StatusRunning || p.Incarnation() != 1 || restarts.Load() != 0 {
		t.Fatalf("after a refused upgrade: status %v, incarnation %d, restarts %d; want the first incarnation running",
			p.Status(), p.Incarnation(), restarts.Load())
	}
	if evs := m.Events(); len(evs) != 0 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestUpgradeUnknownComponent(t *testing.T) {
	m := NewMonitor(Config{})
	if _, err := m.Upgrade("ghost"); err == nil {
		t.Fatal("expected error for unknown component")
	}
}
