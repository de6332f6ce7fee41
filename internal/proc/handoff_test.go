package proc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// carrier is a Handoffer whose whole state is one counter: each Poll
// increments it, which is work, so the runners keep polling it;
// HandoffState ships it, and a successor Init resumes from it. Fresh
// (non-handoff) incarnations start from zero.
type carrier struct {
	count    int64
	cell     *atomic.Int64 // externally observable mirror of count
	handoffs *atomic.Int32
	failNext *atomic.Bool // make HandoffState fail once
}

func (c *carrier) Init(rt *Runtime, restart bool) error {
	if rt.Handoff != nil {
		n, ok := rt.Handoff.(int64)
		if !ok {
			return errors.New("bad payload")
		}
		c.count = n
		c.handoffs.Add(1)
	}
	return nil
}

func (c *carrier) Poll(now time.Time) bool {
	c.count++
	c.cell.Store(c.count)
	return true
}

func (c *carrier) Deadline(now time.Time) time.Time { return time.Time{} }
func (c *carrier) Stop()                            {}

func (c *carrier) HandoffState() (any, error) {
	if c.failNext.Load() {
		c.failNext.Store(false)
		return nil, errors.New("injected serialize failure")
	}
	return c.count, nil
}

func TestUpgradeHandsStateToSuccessor(t *testing.T) {
	var cell atomic.Int64
	var handoffs atomic.Int32
	var failNext atomic.Bool
	p := New("carrier", func() Service {
		return &carrier{cell: &cell, handoffs: &handoffs, failNext: &failNext}
	}, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	deadline := time.Now().Add(2 * time.Second)
	for cell.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	before := cell.Load()
	if before < 100 {
		t.Fatalf("loop barely ran: %d polls", before)
	}

	rep, err := p.Upgrade()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Component != p.Name() {
		t.Fatalf("report names %q, want %q", rep.Component, p.Name())
	}
	if handoffs.Load() != 1 {
		t.Fatalf("handoff inits = %d", handoffs.Load())
	}
	if p.Incarnation() != 2 {
		t.Fatalf("incarnation = %d", p.Incarnation())
	}
	if p.Crashes() != 0 {
		t.Fatalf("planned upgrade counted as crash: %d", p.Crashes())
	}

	// The successor must resume from the transferred counter, not zero: its
	// observed value may only grow past the predecessor's.
	for cell.Load() < before+100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := cell.Load(); after < before {
		t.Fatalf("state lost across handoff: %d -> %d", before, after)
	}
	if rep.Drain < 0 || rep.Transfer < 0 || rep.Rewire < 0 || rep.Resume < 0 {
		t.Fatalf("negative phase timing: %+v", rep)
	}
}

func TestUpgradeSerializeFailureFallsBackToRestart(t *testing.T) {
	var cell atomic.Int64
	var handoffs atomic.Int32
	var failNext atomic.Bool
	p := New("carrier", func() Service {
		return &carrier{cell: &cell, handoffs: &handoffs, failNext: &failNext}
	}, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	failNext.Store(true)
	if _, err := p.Upgrade(); err == nil {
		t.Fatal("expected serialize failure to surface")
	}
	// The component must not be left dead: the fallback relaunched it in
	// restart mode (no handoff payload).
	deadline := time.Now().Add(2 * time.Second)
	for p.Status() != StatusRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Status() != StatusRunning {
		t.Fatalf("status = %v after fallback", p.Status())
	}
	if handoffs.Load() != 0 {
		t.Fatalf("fallback incarnation saw a handoff payload")
	}
	if p.Crashes() != 0 {
		t.Fatalf("planned-upgrade failure counted as crash: %d", p.Crashes())
	}
}

func TestUpgradeNotRunning(t *testing.T) {
	p := New("idle", func() Service {
		return &carrier{cell: new(atomic.Int64), handoffs: new(atomic.Int32), failNext: new(atomic.Bool)}
	}, nil)
	if _, err := p.Upgrade(); err == nil {
		t.Fatal("expected error upgrading a stopped proc")
	}
}
