package proc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/channel"
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
}

func (s *spinService) Init(rt *Runtime, restart bool) error {
	s.rt = rt
	return nil
}

func (s *spinService) Poll(now time.Time) bool {
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
// reaches.
//
// On one P the test goroutine runs only while the runner yields, unarmed,
// or blocks; so the first time it finds the runner's bell armed the runner
// is in a nap of its first streak, and no Poll can have slipped in since
// unless the host stalled the streak past maxSleep, which the test
// retries.
func TestIdleSpinPollsOnlyOnPost(t *testing.T) {
	cases := []struct {
		name    string
		onFirst func(s *spinService)
		want    int32
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
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for attempt := 1; ; attempt++ {
				got, took, armed := idleStreak(t, tc.onFirst)
				// A streak the host stalled past maxSleep before it napped
				// owes the cap one more Poll; it says nothing of the gate.
				if got != tc.want && took >= maxSleep && attempt < 10 {
					t.Logf("attempt %d: %d Polls in a streak that took %v", attempt, got, took)
					continue
				}
				if got != tc.want {
					t.Fatalf("%d Polls up to the first armed nap, want %d", got, tc.want)
				}
				if armed != 0 {
					t.Fatalf("%d Polls ran with the bell armed", armed)
				}
				return
			}
		})
	}
}

// idleStreak runs a spinService until its runner first naps and reports
// the Polls up to then, how long after the first Poll that was, and how
// many Polls ran with the runner's bell armed over several maxSleep polls
// after it.
func idleStreak(t *testing.T, onFirst func(s *spinService)) (polls int32, took time.Duration, armed int32) {
	defer oneRunner(t)()
	svc := &spinService{onFirst: onFirst}
	p := New("spin", func() Service { return svc }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	runners.mu.Lock()
	bell := runners.bells[0]
	runners.mu.Unlock()
	svc.runnerBell.Store(bell)
	for give := time.Now().Add(5 * time.Second); !bell.Armed(); runtime.Gosched() {
		if time.Now().After(give) {
			t.Fatal("runner never napped")
		}
	}
	polls, took = svc.polls.Load(), time.Since(time.Unix(0, svc.first.Load()))
	time.Sleep(10 * maxSleep)
	return polls, took, svc.armedPolls.Load()
}

// running returns how many runner indices are in use.
func running() int {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	return runners.n
}
