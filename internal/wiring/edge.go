package wiring

import (
	"sync/atomic"
	"time"

	"newtos/internal/channel"
	"newtos/internal/msg"
	"newtos/internal/trace"
)

// Intake tuning shared by every server loop: recvBudget caps how many
// requests one edge may feed into an engine per poll, so one busy edge
// cannot starve the others; ScratchLen is the batch moved per RecvBatch
// call (the length loops give their scratch buffer).
const (
	recvBudget = 512
	ScratchLen = 256
)

// Flush pacing — the interrupt-coalescing trade applied to doorbell rings,
// and deliberately not tunable (docs/ARCHITECTURE.md "Substitutions and
// non-goals"). In latency mode every Flush opportunity sends (one ring per
// loop iteration); once burstRuns consecutive opportunities arrive with
// flushN requests staged, the edge shifts to throughput mode and holds
// batches until flushN requests are staged, the oldest staged request is
// flushAge old, or the loop goes idle, whichever comes first. Small batches
// shift it back. flushAge bounds what pacing can add to a request's latency.
const (
	flushN    = 64
	flushAge  = 25 * time.Microsecond
	burstRuns = 3
)

// Edge is one server loop's end of one edge: the Port it listens on, the
// staging queue for what it sends, and the pacer that decides when the
// staged batch rings the peer's doorbell. A loop iteration is the same
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

	// Pacer state, owned by the loop goroutine; only the counters are shared.
	counters   *trace.PacerCounters
	throughput bool
	runs       int
	// heldSince is when Flush first saw the oldest staged request; zero
	// while nothing is staged.
	heldSince time.Time

	// dropped is atomic: the owning loop writes it, DropReporter consumers
	// (recovery experiments) read it from other goroutines.
	dropped atomic.Uint64
}

// NewEdge binds an incarnation's end of an edge to its port. It starts from
// the duplex the port's previous owner last adopted: a crash successor sees
// the rebind its own restart caused at the first Intake, and a live-handoff
// successor (Ports.Resume) carries on mid-generation, so what it stages
// before its first Intake is for the right incarnation.
func NewEdge(port *Port) *Edge {
	e := &Edge{port: port, counters: &trace.PacerCounters{}}
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

// Push stages requests for the incarnation this edge last adopted.
func (e *Edge) Push(reqs ...msg.Req) { e.q = append(e.q, reqs...) }

// Flush is the send half of an iteration: it decides whether this
// opportunity sends the staged batch (one SendBatch, one doorbell ring) or
// holds it for coalescing. idle reports that the loop found no other work
// this iteration — holding then buys nothing (the loop is about to arm its
// doorbell and sleep), so the batch always goes out. A batch the peer
// reincarnated under since it was staged is dropped, never delivered late.
// Reports whether anything moved.
//
// Held batches stay bounded: a loop calls Flush once per iteration, an
// idle iteration always sends, and a busy loop's next opportunity arrives
// within one poll — a request waits at most min(flushAge, one busy
// iteration).
func (e *Edge) Flush(now time.Time, idle bool) bool {
	n := len(e.q)
	if n == 0 {
		return false
	}
	if e.gen != e.port.latest() {
		e.Drop()
		return false
	}
	if e.heldSince.IsZero() {
		e.heldSince = now
	}
	if !e.throughput {
		// Latency mode: every opportunity sends. A run of full batches is a
		// burst — shift to throughput mode and start coalescing.
		if n >= flushN {
			e.runs++
		} else {
			e.runs = 0
		}
		if e.runs >= burstRuns {
			e.throughput, e.runs = true, 0
		}
		return e.send(e.counters.FlushEager)
	}
	var record func(int)
	switch {
	case n >= flushN:
		record = e.counters.FlushSize
	case idle:
		record = e.counters.FlushIdle
	case now.Sub(e.heldSince) >= flushAge:
		record = e.counters.FlushAge
	default:
		e.counters.Held()
		return false
	}
	// The load dropped enough that small batches run dry or age out: they
	// belong back in latency mode.
	if n < flushN/2 {
		e.throughput = false
	}
	return e.send(record)
}

// send moves as much of the staged batch as the queue accepts and records
// the count with the trigger's counter. The hold clock only resets when
// the batch fully drains: a kept remainder is still aging.
func (e *Edge) send(record func(int)) bool {
	if !e.cur.Valid() {
		return false
	}
	n := e.cur.Out.SendBatch(e.q)
	if n == 0 {
		return false
	}
	record(n)
	e.q = e.q[:copy(e.q, e.q[n:])]
	if len(e.q) == 0 {
		e.heldSince = time.Time{}
	}
	return true
}

// Drop discards the staged requests and counts them (the peer restarted;
// the queue they were meant for is gone).
func (e *Edge) Drop() {
	e.dropped.Add(uint64(len(e.q)))
	e.q = e.q[:0]
	e.heldSince = time.Time{}
}

// TakeStaged removes and returns the staged batch without sending or
// dropping it. The live-handoff path calls it after a final idle Flush so
// requests the queue did not accept ride the state transfer to the
// successor's edge instead of being lost — the peer never reincarnated, so
// the batch is still meant for it.
func (e *Edge) TakeStaged() []msg.Req {
	q := e.q
	e.q = nil
	e.heldSince = time.Time{}
	return q
}

// Dropped returns how many staged requests were discarded because their
// target incarnation died before they could be flushed.
func (e *Edge) Dropped() uint64 { return e.dropped.Load() }

// PacerCounters returns the edge's flush-policy counters.
func (e *Edge) PacerCounters() *trace.PacerCounters { return e.counters }

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
