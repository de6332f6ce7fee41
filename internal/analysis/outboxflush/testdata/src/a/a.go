// Package a exercises the outboxflush analyzer.
package a

import (
	"time"

	"newtos/internal/msg"
	"newtos/internal/wiring"
)

// Bad stages in a dispatch helper but its Poll never flushes: the peer's
// doorbell never rings.
type Bad struct {
	out *wiring.Edge
}

func (s *Bad) Poll(now time.Time) bool {
	s.stage()
	return false
}

func (s *Bad) stage() {
	s.out.Push(msg.Req{}) // want `edge out is staged onto \(Push\) but never flushed on any path from \(\*Bad\)\.Poll`
}

// Good pushes and flushes in the same iteration.
type Good struct {
	out *wiring.Edge
}

func (s *Good) Poll(now time.Time) bool {
	s.out.Push(msg.Req{})
	return s.out.Flush()
}

// Sliced stages through a range alias and a helper parameter, and flushes
// through another helper — all attributed back to the field.
type Sliced struct {
	boxes []*wiring.Edge
}

func (s *Sliced) Poll(now time.Time) bool {
	for _, box := range s.boxes {
		stageInto(box)
	}
	return s.flushAll()
}

func stageInto(box *wiring.Edge) {
	box.Push(msg.Req{})
}

func (s *Sliced) flushAll() bool {
	worked := false
	for _, box := range s.boxes {
		if box.Flush() {
			worked = true
		}
	}
	return worked
}

// Dropper tears down instead of delivering; Drop is a valid consumption.
type Dropper struct {
	out *wiring.Edge
}

func (s *Dropper) Poll(now time.Time) bool {
	s.out.Push(msg.Req{})
	s.out.Drop()
	return false
}

// Answerer is the shape of the real loops: replies are pushed from inside
// the Intake handler and leave through Flush in the same iteration.
type Answerer struct {
	edge    *wiring.Edge
	scratch []msg.Req
}

func (s *Answerer) Poll(now time.Time) bool {
	worked := s.edge.Intake(s.scratch, nil, func(b []msg.Req) {
		for _, r := range b {
			s.edge.Push(r)
		}
	})
	return s.edge.Flush() || worked
}

// Mute takes requests in and stages its answers, but its Poll path never
// reaches Flush: Intake alone rings nobody's doorbell.
type Mute struct {
	edge    *wiring.Edge
	scratch []msg.Req
}

func (s *Mute) Poll(now time.Time) bool {
	return s.edge.Intake(s.scratch, s.recover, func(b []msg.Req) {
		for _, r := range b {
			s.edge.Push(r) // want `edge edge is staged onto \(Push\) but never flushed on any path from \(\*Mute\)\.Poll`
		}
	})
}

func (s *Mute) recover() {}

// Suppressed hands the box to an external flusher, annotated as such.
type Suppressed struct {
	out *wiring.Edge
}

func (s *Suppressed) Poll(now time.Time) bool {
	//lint:ignore outboxflush the embedding loop group flushes this box after Poll returns.
	s.out.Push(msg.Req{})
	return false
}
