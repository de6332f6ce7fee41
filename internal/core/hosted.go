package core

import (
	"time"

	"newtos/internal/proc"
	"newtos/internal/wiring"
)

// hosted is several server shells run as one process, in boot order, on one
// event loop and one doorbell: the whole stack in the single-server
// placement (Config.SingleServer), and a transport with its door beside it
// on a node without the SYSCALL server. Each shell keeps its own ports and
// edges — an edge between two hosted shells is an ordinary channel whose
// ends ring the same bell — so a hosted shell is the same code as a process
// of its own; it only shares its fate, and its core, with the others.
type hosted []proc.Service

var _ proc.Service = hosted(nil)

// host makes one process of shells: the shell itself when there is only
// one, so that Proc.Service hands out the server and not a wrapper.
func host(shells []func() proc.Service) func() proc.Service {
	if len(shells) == 1 {
		return shells[0]
	}
	return func() proc.Service {
		h := make(hosted, len(shells))
		for i, s := range shells {
			h[i] = s()
		}
		return h
	}
}

// Init initializes every shell on the shared runtime; one failure fails
// the launch.
func (h hosted) Init(rt *proc.Runtime, restart bool) error {
	for _, s := range h {
		if err := s.Init(rt, restart); err != nil {
			return err
		}
	}
	return nil
}

func (h hosted) Poll(now time.Time) bool {
	worked := false
	for _, s := range h {
		if s.Poll(now) {
			worked = true
		}
	}
	return worked
}

// Deadline is the earliest timer any shell has pending.
func (h hosted) Deadline(now time.Time) time.Time {
	var first time.Time
	for _, s := range h {
		if d := s.Deadline(now); !d.IsZero() && (first.IsZero() || d.Before(first)) {
			first = d
		}
	}
	return first
}

func (h hosted) Stop() {
	for _, s := range h {
		s.Stop()
	}
}

// OutboxDropped sums the shells' counters (wiring.DropReporter).
func (h hosted) OutboxDropped() uint64 {
	var n uint64
	for _, s := range h {
		if r, ok := s.(wiring.DropReporter); ok {
			n += r.OutboxDropped()
		}
	}
	return n
}
