package proc

import (
	"sync/atomic"
	"testing"
	"time"
)

// spinService finds no work and has no deadline unless a test gives it
// one. It counts Polls up to the park: the first Poll made with the bell
// armed is the re-check between Arm and Wait.
type spinService struct {
	rt *Runtime
	// onFirst runs inside the first Poll, on the loop goroutine.
	onFirst func(s *spinService)
	// deadline is loop-owned: set and cleared by Poll, read by Deadline.
	deadline time.Time
	polls    int32
	parkedAt atomic.Int32 // Polls up to and including the re-check
	parked   chan struct{}
}

func (s *spinService) Init(rt *Runtime, restart bool) error {
	s.rt = rt
	return nil
}

func (s *spinService) Poll(now time.Time) bool {
	s.polls++
	if s.polls == 1 && s.onFirst != nil {
		s.onFirst(s)
	} else if !s.deadline.IsZero() && !now.Before(s.deadline) {
		s.deadline = time.Time{} // the timer fired
	}
	if s.rt.Bell.Armed() && s.parkedAt.Load() == 0 {
		s.parkedAt.Store(s.polls)
		close(s.parked)
	}
	return false
}

func (s *spinService) Deadline(now time.Time) time.Time { return s.deadline }
func (s *spinService) Stop()                            {}

// TestIdleSpinPollsOnlyOnPost pins the spin phase's gate: after an empty
// Poll the loop polls again only when its doorbell is rung or its deadline
// falls due, so a streak with neither runs two Polls up to the park — the
// empty one and the re-check after Arm — where re-polling every spin would
// run one per backoff step (32 yields and 6 sleeps).
func TestIdleSpinPollsOnlyOnPost(t *testing.T) {
	cases := []struct {
		name    string
		onFirst func(s *spinService)
		want    int32
	}{
		{name: "no input", want: 2},
		{
			name: "a ring from another goroutine mid-streak",
			onFirst: func(s *spinService) {
				rung := make(chan struct{})
				go func() { s.rt.Bell.Ring(); close(rung) }()
				<-rung
			},
			want: 3,
		},
		{
			name:    "a past deadline",
			onFirst: func(s *spinService) { s.deadline = time.Now().Add(-time.Millisecond) },
			want:    3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := &spinService{onFirst: tc.onFirst, parked: make(chan struct{})}
			p := New("spin", func() Service { return svc }, Options{}, nil)
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			defer p.Shutdown()
			select {
			case <-svc.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("loop never parked")
			}
			if got := svc.parkedAt.Load(); got != tc.want {
				t.Fatalf("%d Polls up to the park, want %d", got, tc.want)
			}
		})
	}
}
