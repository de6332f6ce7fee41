package proc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// spinService finds no work and has no deadline unless a test gives it
// one. It counts its Polls and the ones made with the bell armed.
type spinService struct {
	rt *Runtime
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
	if s.rt.Bell.Armed() {
		s.armedPolls.Add(1)
	}
	return false
}

func (s *spinService) Deadline(now time.Time) time.Time { return s.deadline }
func (s *spinService) Stop()                            {}

// TestIdleSpinPollsOnlyOnPost pins the idle gate: after an empty Poll the
// loop polls again only when its doorbell is rung or its deadline falls
// due, so a streak with neither runs one Poll up to the first armed nap,
// where re-polling every idle step would run one per yield. No Poll runs
// between Arm and Wait: the re-check is the post count.
//
// On one P the test goroutine runs only while the loop yields, unarmed,
// or blocks; so the first time it finds the bell armed the loop is in a
// nap of its first streak, and no Poll can have slipped in since unless
// the host stalled the streak past maxSleep, which the test retries.
func TestIdleSpinPollsOnlyOnPost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

// idleStreak runs a spinService until its loop first naps and reports the
// Polls up to then, how long after the first Poll that was, and how many
// Polls ran with the bell armed over several maxSleep polls after it.
func idleStreak(t *testing.T, onFirst func(s *spinService)) (polls int32, took time.Duration, armed int32) {
	svc := &spinService{onFirst: onFirst}
	p := New("spin", func() Service { return svc }, Options{}, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	bell := svc.rt.Bell
	for give := time.Now().Add(5 * time.Second); !bell.Armed(); runtime.Gosched() {
		if time.Now().After(give) {
			t.Fatal("loop never napped")
		}
	}
	polls, took = svc.polls.Load(), time.Since(time.Unix(0, svc.first.Load()))
	time.Sleep(10 * maxSleep)
	return polls, took, svc.armedPolls.Load()
}
