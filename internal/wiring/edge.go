package wiring

import (
	"sync/atomic"

	"newtos/internal/channel"
	"newtos/internal/msg"
)

// Intake tuning shared by every server loop: recvBudget caps how many
// requests one edge may feed into an engine per poll, so one busy edge
// cannot starve the others; ScratchLen is the batch moved per RecvBatch
// call (the length loops give their scratch buffer).
const (
	recvBudget = 512
	ScratchLen = 256
)

// Edge is one server loop's end of one edge: the Port it listens on and
// the staging queue for what it sends. A loop iteration is the same
// everywhere (paper §IV-A: servers never block on a full queue, and pay
// one doorbell per batch, not per request):
//
//	for every edge: Intake — adopt a rebind, drain the inbox into the engine
//	run the engine, Push its output onto the edges
//	for every edge: Flush — one SendBatch, one doorbell ring
//
// Whatever the queue does not accept stays staged for the next iteration.
// An Edge belongs to one incarnation of its loop; the Port underneath is
// stable across incarnations.
type Edge struct {
	port *Port
	// cur is the duplex this loop last adopted and gen its generation;
	// everything staged in q was produced for that incarnation.
	cur channel.Duplex
	gen int
	q   []msg.Req

	// unflushed is set by a Push and cleared by the next Flush; while it
	// is set the edge is listed, under name, on bell, the owning
	// incarnation's doorbell, which its runner checks after an empty Poll.
	unflushed bool
	bell      *channel.Doorbell
	name      string

	// dropped is atomic: the owning loop writes it, DropReporter consumers
	// (recovery experiments) read it from other goroutines.
	dropped atomic.Uint64
}

// NewEdge binds an incarnation's end of an edge to its port. It starts from
// the duplex the port's previous owner last adopted: a crash successor sees
// the rebind its own restart caused at the first Intake, and a live-handoff
// successor (Ports.Resume) carries on mid-generation, so what it stages
// before its first Intake is for the right incarnation. The owner's Begin
// or Resume comes first: the edge keeps to that incarnation's doorbell.
func NewEdge(port *Port) *Edge {
	e := &Edge{port: port, name: port.owner.name + ":" + port.edge}
	e.bell = port.owner.bell.Load()
	e.cur, e.gen = port.held()
	return e
}

// Intake is the receive half of an iteration. It adopts a pending rebind,
// then drains up to recvBudget requests through scratch into handle, one
// RecvBatch per scratch-full. Reports whether anything happened.
//
// The restart rule, for every loop in the tree: a rebind means the peer (or
// this end) reincarnated, so the staged batch is dropped — it was produced
// for a duplex whose queues are gone, and delivering it to the new one
// would corrupt a protocol state that never saw the requests before it —
// and then onRestart (may be nil) runs the owner's recovery: abort,
// resubmit, resupply, re-announce, which regenerates whatever still
// matters. What onRestart pushes is staged for the new incarnation. The
// rule needs no "is the channel valid" clause: a generation only advances
// when a freshly created duplex is installed. The first Intake after
// wiring is a rebind like any other; a loop that must tell "wired" from
// "rewired" (the driver's device reset) does so in its hook.
func (e *Edge) Intake(scratch []msg.Req, onRestart func(), handle func([]msg.Req)) bool {
	dup, gen, changed := e.port.take(e.gen)
	if changed {
		e.cur, e.gen = dup, gen
		e.Drop()
		if onRestart != nil {
			onRestart()
		}
	}
	worked := changed
	if !e.cur.Valid() {
		return worked // not wired yet
	}
	for budget := recvBudget; budget > 0; {
		n := e.cur.In.RecvBatch(scratch[:min(budget, len(scratch))])
		if n == 0 {
			break
		}
		handle(scratch[:n])
		worked = true
		budget -= n
	}
	return worked
}

// Push stages requests for the incarnation this edge last adopted. The
// Poll that pushes must Flush the edge before it returns.
func (e *Edge) Push(reqs ...msg.Req) {
	e.q = append(e.q, reqs...)
	if !e.unflushed && len(reqs) > 0 {
		e.unflushed = true
		e.bell.Staged(e.name)
	}
}

// flushed ends the pushes' wait for a Flush (or a Drop, or TakeStaged).
func (e *Edge) flushed() {
	if e.unflushed {
		e.unflushed = false
		e.bell.Flushed(e.name)
	}
}

// Flush is the send half of an iteration: everything staged goes out in
// one SendBatch, one doorbell ring. What the queue does not accept stays
// staged for the next iteration; a batch the peer reincarnated under since
// it was staged is dropped, never delivered late. Reports whether anything
// moved.
func (e *Edge) Flush() bool {
	e.flushed()
	if len(e.q) == 0 {
		return false
	}
	if e.gen != e.port.latest() {
		e.Drop()
		return false
	}
	n := e.cur.Out.SendBatch(e.q) // zero before the edge is wired
	e.q = e.q[:copy(e.q, e.q[n:])]
	return n > 0
}

// Drop discards the staged requests and counts them (the peer restarted;
// the queue they were meant for is gone).
func (e *Edge) Drop() {
	e.flushed()
	e.dropped.Add(uint64(len(e.q)))
	e.q = e.q[:0]
}

// TakeStaged removes and returns the staged batch without sending or
// dropping it. The live-handoff path calls it after a final Flush so
// requests the queue did not accept ride the state transfer to the
// successor's edge instead of being lost — the peer never reincarnated, so
// the batch is still meant for it.
func (e *Edge) TakeStaged() []msg.Req {
	e.flushed()
	q := e.q
	e.q = nil
	return q
}

// Dropped returns how many staged requests were discarded because their
// target incarnation died before they could be flushed.
func (e *Edge) Dropped() uint64 { return e.dropped.Load() }

// DropReporter is implemented by server shells that surface the sum of
// their edges' Dropped() counters, so recovery experiments can observe how
// many staged requests each loop shed across peer reincarnations instead
// of the counts dying with the incarnation unread.
type DropReporter interface {
	OutboxDropped() uint64
}

// SumDropped totals the given edges' drop counters.
func SumDropped(edges ...*Edge) uint64 {
	var n uint64
	for _, e := range edges {
		n += e.Dropped()
	}
	return n
}
