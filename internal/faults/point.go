// Package faults provides the fault-injection machinery used to evaluate
// the stack's dependability (paper §VI-B).
//
// The original work injected faults into component binaries with the tool
// used for Rio, Nooks and MINIX 3 driver isolation; the observable outcome
// classes are crashes, hangs, and silent misbehaviour. This package plants
// an armable Point in every server's event loop that produces the first two
// on demand; silent misbehaviour is not injected. That is the substitution
// documented in docs/ARCHITECTURE.md "Substitutions and non-goals".
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind is the class of fault a point produces.
type Kind int

// Fault kinds.
const (
	// None means the point is disarmed.
	None Kind = iota
	// Crash makes the component panic (the common outcome of text-segment
	// bit flips: illegal instructions, wild pointers).
	Crash
	// Hang makes the component stop responding while its goroutine stays
	// alive — detected only by missed heartbeats.
	Hang
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injected is the panic value raised by an armed point, letting the process
// wrapper distinguish injected faults from genuine bugs in reports.
type Injected struct {
	Component string
	Kind      Kind
}

func (i Injected) Error() string {
	return fmt.Sprintf("injected %s fault in %s", i.Kind, i.Component)
}

// Point is one component's fault hook. The component calls Check on every
// loop iteration; a supervisor arms it. The zero value is NOT usable;
// construct with NewPoint.
type Point struct {
	component string
	// ring wakes the component's loop, so an armed fault fires on an idle
	// component too; nil when nothing steps the point.
	ring func()
	// armed is true while a fault is scheduled and has not fired: Check,
	// which runs on every loop iteration, returns on one load otherwise.
	armed atomic.Bool

	mu        sync.Mutex
	kind      Kind
	fired     bool
	abandoned chan struct{}
}

// NewPoint returns a disarmed point for the named component; ring (may be
// nil) is how Arm wakes the loop that calls Check.
func NewPoint(component string, ring func()) *Point {
	return &Point{component: component, ring: ring, abandoned: make(chan struct{})}
}

// Arm schedules a fault of the given kind to fire at the next Check, and
// rings the component's loop so that Check comes without other input.
func (p *Point) Arm(k Kind) {
	p.mu.Lock()
	p.kind = k
	p.fired = false
	p.armed.Store(k != None)
	p.mu.Unlock()
	if p.ring != nil {
		p.ring()
	}
}

// Disarm cancels a scheduled fault.
func (p *Point) Disarm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kind = None
	p.armed.Store(false)
}

// Fired reports whether the armed fault has gone off.
func (p *Point) Fired() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Check fires a due fault: it panics with an Injected value, a Hang first
// blocking until Release.
func (p *Point) Check() {
	if !p.armed.Load() {
		return
	}
	p.mu.Lock()
	if p.kind == None || p.fired {
		p.mu.Unlock()
		return
	}
	kind := p.kind
	p.fired = true
	p.armed.Store(false)
	abandoned := p.abandoned
	p.mu.Unlock()

	if kind == Hang {
		// Stop responding. The goroutine is parked until the supervisor
		// gives up on this incarnation and Releases it, at which point it
		// unwinds like a crash so the wrapper can clean up.
		<-abandoned
	}
	panic(Injected{Component: p.component, Kind: kind})
}

// Release abandons a hung incarnation, letting its parked goroutine unwind.
// Safe to call multiple times.
func (p *Point) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.abandoned:
	default:
		close(p.abandoned)
	}
}
