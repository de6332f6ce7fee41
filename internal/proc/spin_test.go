package proc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/faults"
)

// spinService finds no work and has no deadline unless a test gives it
// one. It counts its Polls and the ones made with its runner's bell armed.
type spinService struct {
	rt *Runtime
	// runnerBell is the bell its runner naps on, once the test has set it.
	runnerBell atomic.Pointer[channel.Doorbell]
	// onFirst runs inside the first Poll, on the loop goroutine.
	onFirst func(s *spinService)
	// deadline is loop-owned: set and cleared by Poll, read by Deadline.
	deadline   time.Time
	polls      atomic.Int32
	armedPolls atomic.Int32
	first      atomic.Int64 // the first Poll's now, in Unix nanoseconds
	last       atomic.Int64 // the latest Poll's now, in Unix nanoseconds
}

func (s *spinService) Init(rt *Runtime, restart bool) error {
	s.rt = rt
	return nil
}

func (s *spinService) Poll(now time.Time) bool {
	s.last.Store(now.UnixNano())
	if s.polls.Add(1) == 1 {
		s.first.Store(now.UnixNano())
		if s.onFirst != nil {
			s.onFirst(s)
		}
	} else if !s.deadline.IsZero() && !now.Before(s.deadline) {
		s.deadline = time.Time{} // the timer fired
	}
	if b := s.runnerBell.Load(); b != nil && b.Armed() {
		s.armedPolls.Add(1)
	}
	return false
}

func (s *spinService) Deadline(now time.Time) time.Time { return s.deadline }
func (s *spinService) Stop()                            {}

// TestIdleSpinPollsOnlyOnPost pins the idle gate: after an empty Poll the
// runner polls a member again only when the member's doorbell is rung or
// its deadline falls due, so a streak with neither runs one Poll up to the
// runner's first armed nap, where re-polling every idle sweep would run
// one per yield. No Poll runs between Arm and Wait of the runner's bell:
// the re-check is that bell's post count, which every member's ring
// reaches. A deadline at or before the Poll's own now breaks the deadline
// contract, and the process counts it.
//
// On one P the test goroutine runs only while the runner yields, unarmed,
// or blocks; so the first time it finds the runner's bell armed the runner
// is in a nap of its first streak.
func TestIdleSpinPollsOnlyOnPost(t *testing.T) {
	cases := []struct {
		name    string
		onFirst func(s *spinService)
		want    int32
		past    uint64 // empty Polls that left a due deadline
	}{
		{name: "no input", want: 1},
		{
			name: "a ring from another goroutine mid-streak",
			onFirst: func(s *spinService) {
				rung := make(chan struct{})
				go func() { s.rt.Bell.Ring(); close(rung) }()
				<-rung
			},
			want: 2,
		},
		{
			name:    "a past deadline",
			onFirst: func(s *spinService) { s.deadline = time.Now().Add(-time.Millisecond) },
			want:    2,
			past:    1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := &spinService{onFirst: tc.onFirst}
			p := startIdle(t, svc)
			if got := svc.polls.Load(); got != tc.want {
				t.Fatalf("%d Polls up to the first armed nap, want %d", got, tc.want)
			}
			time.Sleep(5 * time.Millisecond)
			if armed := svc.armedPolls.Load(); armed != 0 {
				t.Fatalf("%d Polls ran with the bell armed", armed)
			}
			if got := p.PastDeadlines(); got != tc.past {
				t.Fatalf("PastDeadlines = %d, want %d", got, tc.past)
			}
		})
	}
}

// startIdle starts svc as the one member of one runner and returns once
// that runner first naps. The process shuts down when the test ends.
func startIdle(t *testing.T, svc *spinService) *Proc {
	t.Cleanup(oneRunner(t))
	p := New("spin", func() Service { return svc }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	runners.mu.Lock()
	bell := runners.bells[0]
	runners.mu.Unlock()
	svc.runnerBell.Store(bell)
	for give := time.Now().Add(5 * time.Second); !bell.Armed(); runtime.Gosched() {
		if time.Now().After(give) {
			t.Fatal("runner never napped")
		}
	}
	return p
}

// TestIdleMemberWithoutDeadlineIsNotPolled: there is no poll cap. A member
// whose last Poll was empty and that has no deadline is not polled again
// until something rings its bell.
func TestIdleMemberWithoutDeadlineIsNotPolled(t *testing.T) {
	svc := &spinService{}
	p := startIdle(t, svc)
	before := svc.polls.Load()
	time.Sleep(100 * time.Millisecond)
	if got := svc.polls.Load() - before; got != 0 {
		t.Fatalf("%d Polls in 100 ms of an idle member with no deadline, want 0", got)
	}
	if got := p.PastDeadlines(); got != 0 {
		t.Fatalf("PastDeadlines = %d", got)
	}
}

// TestDeadlinePollsOnceAtItsInstant: a member whose deadline is D is polled
// once, at or after D, and not in between.
func TestDeadlinePollsOnceAtItsInstant(t *testing.T) {
	const wait = 20 * time.Millisecond
	svc := &spinService{onFirst: func(s *spinService) { s.deadline = time.Now().Add(wait) }}
	p := startIdle(t, svc)
	due := time.Unix(0, svc.first.Load()).Add(wait)
	time.Sleep(time.Until(due) + 100*time.Millisecond)
	if got := svc.polls.Load(); got != 2 {
		t.Fatalf("%d Polls, want 2: the first and the one the deadline brought", got)
	}
	if last := time.Unix(0, svc.last.Load()); last.Before(due) {
		t.Fatalf("the second Poll ran %v before the deadline", due.Sub(last))
	}
	if got := p.PastDeadlines(); got != 0 {
		t.Fatalf("PastDeadlines = %d", got)
	}
}

// TestArmFiresOnIdleMember: arming a fault rings the member's bell, so it
// fires on a member that has no other input.
func TestArmFiresOnIdleMember(t *testing.T) {
	svc := &spinService{}
	p := startIdle(t, svc)
	fired := make(chan struct{})
	p.Fault().SetCorruptHook(func() { close(fired) })
	p.Fault().Arm(faults.Corrupt)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("a fault armed on an idle member never fired")
	}
}

// running returns how many runner indices are in use.
func running() int {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	return runners.n
}
