package proc_test

import (
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/proc"
	"newtos/internal/reinc"
)

// member is a service whose Poll drains work units a test hands it, and
// blocks on block, beyond the reach of Fault.Release, once after hang is
// raised.
type member struct {
	rt    atomic.Pointer[proc.Runtime]
	polls atomic.Int64
	work  atomic.Int32
	hang  *atomic.Bool
	block chan struct{}
}

func (m *member) Init(rt *proc.Runtime, restart bool) error {
	m.rt.Store(rt)
	return nil
}

func (m *member) Poll(now time.Time) bool {
	m.polls.Add(1)
	if m.hang != nil && m.hang.CompareAndSwap(true, false) {
		<-m.block
	}
	if m.work.Load() > 0 {
		m.work.Add(-1)
		return true
	}
	return false
}

func (m *member) Deadline(now time.Time) time.Time { return time.Time{} }
func (m *member) Stop()                            {}

// TestRunnerHangRehomesCoMembers: one of two processes on a single runner
// hangs in Poll where Release cannot reach it. The other still answers a
// ring within two sweep intervals of the reincarnation server, which
// replaces the stuck runner, and the server then reincarnates the hung
// process onto a runner that steps it.
func TestRunnerHangRehomesCoMembers(t *testing.T) {
	defer proc.OneRunner(t)()
	const interval = 20 * time.Millisecond
	m := reinc.NewMonitor(reinc.Config{HeartbeatInterval: interval, HeartbeatMiss: 5 * interval})
	m.Start()
	defer m.Stop()

	var hang atomic.Bool
	block := make(chan struct{})
	var stuck atomic.Pointer[member] // the hung member's latest incarnation
	hp := proc.New("hung", func() proc.Service {
		s := &member{hang: &hang, block: block}
		stuck.Store(s)
		return s
	}, m.OnCrash())
	peer := &member{}
	pp := proc.New("peer", func() proc.Service { return peer }, m.OnCrash())
	for _, p := range []*proc.Proc{hp, pp} {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		m.Adopt(p)
	}
	defer pp.Shutdown()
	defer hp.Shutdown()
	defer close(block) // first: the hung Poll returns, then both shut down

	// The monitor's first sweep grants every child a full HeartbeatMiss
	// from then on; let it pass so the hang is judged from its own start.
	time.Sleep(2 * interval)
	hang.Store(true)
	stuck.Load().rt.Load().Bell.Ring()
	for give := time.Now().Add(2 * time.Second); hp.BusySince().IsZero(); time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatal("the hang never took hold")
		}
	}
	// Ring the peer half a sweep interval into the hang.
	time.Sleep(interval / 2)
	rung := time.Now()
	peer.work.Store(1)
	peer.rt.Load().Bell.Ring()
	for peer.work.Load() > 0 && time.Since(rung) < 2*time.Second {
		time.Sleep(100 * time.Microsecond)
	}
	if took := time.Since(rung); peer.work.Load() > 0 || took > 2*interval {
		t.Fatalf("the co-member answered its ring after %v, want within %v", took, 2*interval)
	}

	for give := time.Now().Add(3 * time.Second); hp.Incarnation() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatal("the hung member was never reincarnated")
		}
	}
	evs := m.Events()
	if len(evs) != 1 || evs[0].Name != "hung" || !evs[0].Hang {
		t.Fatalf("events = %+v, want one hang of the hung member", evs)
	}
	succ := stuck.Load()
	for give := time.Now().Add(2 * time.Second); succ.polls.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatal("the reincarnated member is never polled")
		}
	}
}

// TestRunnerReplacedMidStepHandsBackItsMember: a step overruns, so the
// reincarnation server replaces its runner, and the replacement, with
// nothing else to do, naps without a deadline. When the step returns with
// work still pending, the member must be polled again: its old runner rings
// it as it lets go, since nothing else will.
func TestRunnerReplacedMidStepHandsBackItsMember(t *testing.T) {
	defer proc.OneRunner(t)()
	const interval = 20 * time.Millisecond
	m := reinc.NewMonitor(reinc.Config{HeartbeatInterval: interval, HeartbeatMiss: 100 * interval})
	m.Start()
	defer m.Stop()

	var hang atomic.Bool
	block := make(chan struct{})
	slow := &member{hang: &hang, block: block}
	p := proc.New("slow", func() proc.Service { return slow }, m.OnCrash())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	m.Adopt(p)
	defer p.Shutdown()

	time.Sleep(2 * interval) // past the monitor's first grace period
	slow.work.Store(2)       // the overrunning Poll takes one, one is left
	hang.Store(true)
	slow.rt.Load().Bell.Ring()
	for give := time.Now().Add(2 * time.Second); p.BusySince().IsZero(); time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatal("the overrunning step never began")
		}
	}
	// The monitor replaces the runner after one interval of overrun; give
	// the replacement time to sweep and nap.
	time.Sleep(5 * interval)
	close(block)
	for give := time.Now().Add(time.Second); slow.work.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatalf("the member still has %d unit of work 1 s after its overrunning step returned: no runner polled it again", slow.work.Load())
		}
	}
	if p.Incarnation() != 1 {
		t.Fatalf("the member was reincarnated (incarnation %d): the test wants only its runner replaced", p.Incarnation())
	}
}
