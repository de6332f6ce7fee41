package wiring

import (
	"sync/atomic"

	"newtos/internal/channel"
	"newtos/internal/msg"
)

// recvBudget caps how many requests one edge may feed into an engine per
// poll, so one busy edge cannot starve the others.
const recvBudget = 512

// Edge is one server loop's end of one edge: the Port it listens on and
// what it sends. A loop iteration is the same everywhere (paper §IV-A:
// servers never block on a full queue, and pay one doorbell per batch,
// not per request):
//
//	for every edge: Intake — adopt a rebind, hand the inbox to the engine
//	run the engine, Push its output onto the edges
//	for every edge: Flush — one tail store, one doorbell ring
//
// A request crosses the edge in one copy. Push writes it straight into a
// free slot of the peer's queue, unpublished; Flush publishes everything
// written since the last Flush at once; the peer's Intake hands its
// handler the queue's own slots and frees them when the handler returns.
// Only what the queue has no room for (and whatever is pushed before the
// edge is wired) is staged in a side queue, and leaves first at the next
// Flush, so order stays FIFO. An Edge belongs to one incarnation of its
// loop; the Port underneath is stable across incarnations.
type Edge struct {
	port *Port
	// cur is the duplex this loop last adopted and gen its generation;
	// everything written to cur and staged in q was produced for that
	// incarnation. written counts the slots of cur's queue written since
	// the last Flush; q holds, in order, what comes after them.
	cur     channel.Duplex
	gen     int
	written int
	q       []msg.Req

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
// then hands up to recvBudget requests to handle where they lie in the
// queue, one run at a time (a queue that wraps is two runs), and frees
// each run when handle returns. handle must not keep the slice, or a
// pointer into it, after it returns: the peer writes its next requests
// there. Reports whether anything happened.
//
// The restart rule, for every loop in the tree: a rebind means the peer (or
// this end) reincarnated, so the unflushed batch is dropped — it was
// produced for a duplex whose queues are gone, and delivering it to the new
// one would corrupt a protocol state that never saw the requests before it
// — and then onRestart (may be nil) runs the owner's recovery: abort,
// resubmit, resupply, re-announce, which regenerates whatever still
// matters. What onRestart pushes is for the new incarnation. The rule
// needs no "is the channel valid" clause: a generation only advances when a
// freshly created duplex is installed. The first Intake after wiring is a
// rebind like any other; a loop that must tell "wired" from "rewired" (the
// driver's device reset) does so in its hook.
func (e *Edge) Intake(onRestart func(), handle func([]msg.Req)) bool {
	dup, gen, changed := e.port.take(e.gen)
	if changed {
		e.cur, e.gen = dup, gen
		e.Drop()
		if onRestart != nil {
			onRestart()
		}
	}
	worked := changed
	for budget := recvBudget; budget > 0; {
		b := e.cur.In.View(budget) // empty before the edge is wired
		if len(b) == 0 {
			break
		}
		handle(b)
		e.cur.In.Done(len(b))
		worked = true
		budget -= len(b)
	}
	return worked
}

// Push writes requests for the incarnation this edge last adopted into the
// free slots of its queue, after those written since the last Flush,
// without publishing them; what does not fit is staged. The Poll that
// pushes must Flush the edge before it returns.
func (e *Edge) Push(reqs ...msg.Req) {
	if len(reqs) == 0 {
		return
	}
	n := 0
	if len(e.q) == 0 { // nothing staged may be overtaken
		n = e.cur.Out.Write(e.written, reqs) // zero before the edge is wired
		e.written += n
	}
	e.q = append(e.q, reqs[n:]...)
	if !e.unflushed {
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

// Flush is the send half of an iteration: what is staged is written after
// the pushes already in the queue, and everything goes out with one tail
// store and one doorbell ring. What the queue does not accept stays staged
// for the next iteration; a batch the peer reincarnated under since it was
// pushed is dropped, never delivered late. Reports whether anything moved.
func (e *Edge) Flush() bool {
	e.flushed()
	if e.written == 0 && len(e.q) == 0 {
		return false
	}
	if e.gen != e.port.latest() {
		e.Drop()
		return false
	}
	n := e.cur.Out.Write(e.written, e.q) // zero before the edge is wired
	e.q = e.q[:copy(e.q, e.q[n:])]
	n += e.written
	e.written = 0
	e.cur.Out.Publish(n)
	return n > 0
}

// Drop discards the unflushed requests, written and staged, and counts
// them (the peer restarted; the queue they were meant for is gone). The
// written slots are never published: the next Push overwrites them.
func (e *Edge) Drop() {
	e.flushed()
	e.dropped.Add(uint64(e.written + len(e.q)))
	e.written = 0
	e.q = e.q[:0]
}

// TakeStaged removes and returns the unflushed batch, the written requests
// copied out ahead of the staged ones, without sending or dropping it. The
// live-handoff path calls it after a final Flush so requests the queue did
// not accept ride the state transfer to the successor's edge instead of
// being lost — the peer never reincarnated, so the batch is still meant
// for it.
func (e *Edge) TakeStaged() []msg.Req {
	e.flushed()
	q := append(e.cur.Out.Unpublished(e.written, nil), e.q...)
	e.written = 0
	e.q = e.q[:0]
	return q
}

// Dropped returns how many pushed requests were discarded because their
// target incarnation died before they could be flushed.
func (e *Edge) Dropped() uint64 { return e.dropped.Load() }

// DropReporter is implemented by server shells that surface the sum of
// their edges' Dropped() counters, so recovery experiments can observe how
// many pushed requests each loop shed across peer reincarnations instead
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
