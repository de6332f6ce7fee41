package reinc

import (
	"strings"
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
// never count toward the MaxRestarts crash budget.
func TestUpgradeIsPlannedEvent(t *testing.T) {
	m := NewMonitor(Config{HeartbeatInterval: 5 * time.Millisecond, MaxRestarts: 1})
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

	// Several planned upgrades in a row: well past MaxRestarts=1, all fine.
	for i := 0; i < 3; i++ {
		rep, err := m.Upgrade("svc")
		if err != nil {
			t.Fatalf("upgrade %d: %v", i, err)
		}
		if !rep.Live {
			t.Fatalf("upgrade %d: expected live handoff, got %+v", i, rep)
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

	// A real crash afterwards must still be recovered: the budget was not
	// consumed by the upgrades (1 crash <= MaxRestarts).
	p.Fault().Arm(faults.Crash)
	deadline := time.Now().Add(2 * time.Second)
	for restarts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if restarts.Load() == 0 {
		t.Fatal("crash after upgrades was not recovered")
	}
	if len(m.Down()) != 0 {
		t.Fatalf("component disabled despite unspent crash budget: %v", m.Down())
	}
}

// TestUpgradeFallbackIsGracefulRestart: a child without handoff support is
// swapped via planned graceful restart, recorded as such and still Planned.
func TestUpgradeFallbackIsGracefulRestart(t *testing.T) {
	m := NewMonitor(Config{HeartbeatInterval: 5 * time.Millisecond})
	m.Start()
	defer m.Stop()
	p, restarts := startChild(t, m, "plain")
	defer p.Shutdown()

	rep, err := m.Upgrade("plain")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live {
		t.Fatalf("non-Handoffer reported live handoff: %+v", rep)
	}
	if restarts.Load() != 1 {
		t.Fatalf("restart-mode inits = %d", restarts.Load())
	}
	if p.Crashes() != 0 {
		t.Fatalf("graceful restart counted as crash: %d", p.Crashes())
	}
	evs := m.Events()
	if len(evs) != 1 || !evs[0].Planned || !strings.Contains(evs[0].Reason, "graceful") {
		t.Fatalf("events = %+v", evs)
	}
}

func TestUpgradeUnknownComponent(t *testing.T) {
	m := NewMonitor(Config{})
	if _, err := m.Upgrade("ghost"); err == nil {
		t.Fatal("expected error for unknown component")
	}
}
