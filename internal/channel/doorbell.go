// Package channel implements the NewtOS fast-path communication
// architecture (paper §IV): asynchronous user-space channels built from
// single-producer single-consumer queues, shared-memory pools, a request
// database with abort actions, and a publish/subscribe channel registry.
//
// The kernel (package kipc) is only involved in setting channels up and in
// turning a device interrupt into a ring of its driver's doorbell; all
// fast-path traffic moves through these structures without trapping.
//
// The data path is batched end to end (docs/ARCHITECTURE.md): Out.SendBatch
// moves a whole batch into the ring and rings the consumer's doorbell
// exactly once, In.RecvBatch drains into a caller-owned scratch slice, and
// each direction keeps a trace.BatchCounter (Out.Stats/In.Stats) whose
// msgs-per-batch ratio is the messages per doorbell ring. The per-slot
// Send/Recv pair remains for control-plane and benchmark use.
package channel

import (
	"sync/atomic"
	"time"
)

// Doorbell is the software analogue of the paper's MONITOR/MWAIT idle-wait:
// each server exports one memory location it watches while idle, and every
// producer that appends to one of the server's queues "writes" to it.
//
// Every Ring counts one post, awake or armed: a consumer that is still
// spinning watches that count (Posts) instead of re-reading its queues, the
// way a monitored cache line changes under MWAIT. While the consumer is
// running, Ring costs one atomic add and one atomic load, and a relayed
// bell (RelayTo) the same again for its relay. Only when the
// consumer has announced it is going to sleep (Arm) does Ring also pay one
// CAS and a wake-up — mirroring the paper's observation that waking an idle
// core is expensive (kernel-assisted MWAIT) while polling a hot one is free.
type Doorbell struct {
	// state is 0 while the consumer is awake and 1 once it has armed the
	// bell before sleeping.
	state atomic.Int32
	posts atomic.Uint64 // how many times the bell was rung
	wake  chan struct{}
	rungs atomic.Uint64 // how many times a sleeper was actually woken
	// timer bounds every Wait. Only the consumer touches it, and it is
	// stopped whenever no Wait is running, so one timer serves every nap.
	timer *time.Timer
	// relay, when set, is rung by every Ring of this bell: the bell of the
	// goroutine that steps this bell's consumer along with others.
	relay atomic.Pointer[Doorbell]
	// unflushed names the consumer's own outgoing edges that hold requests
	// staged since their last flush, one entry per such edge. Only the
	// goroutine stepping the consumer touches it.
	unflushed []string
}

// NewDoorbell returns a ready-to-use doorbell.
func NewDoorbell() *Doorbell {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Doorbell{wake: make(chan struct{}, 1), timer: t}
}

// Ring counts a post and wakes the consumer if (and only if) it is
// sleeping. Producers call it after every enqueue, so a post count read
// before a poll that has not moved since means nothing was enqueued after
// that read.
func (d *Doorbell) Ring() {
	d.posts.Add(1)
	if up := d.relay.Load(); up != nil {
		up.Ring()
	}
	if d.state.Load() == 1 && d.state.CompareAndSwap(1, 0) {
		d.rungs.Add(1)
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// Arm announces that the consumer intends to sleep. After arming, the
// consumer MUST re-check before actually blocking, either its queues or
// the post count it read before it last looked at them: a producer that
// enqueued before Arm will not ring. This is the classic lost-wakeup
// protocol the MWAIT monitor provides in hardware.
func (d *Doorbell) Arm() {
	d.state.Store(1)
}

// Disarm cancels a pending Arm (the re-check found work). It also drains a
// stale wake token so the next sleep does not return immediately.
func (d *Doorbell) Disarm() {
	d.state.Store(0)
	select {
	case <-d.wake:
	default:
	}
}

// Wait blocks until rung or until the timeout elapses. A zero or negative
// timeout means wait indefinitely. It returns true if woken by a ring.
// The consumer must have called Arm (and re-checked) first. A timed Wait
// allocates nothing: it re-arms the bell's one timer, and since Go 1.23 a
// stopped or fired timer leaves no stale tick behind for the next Reset.
func (d *Doorbell) Wait(timeout time.Duration) bool {
	if timeout <= 0 {
		<-d.wake
		d.state.Store(0)
		return true
	}
	d.timer.Reset(timeout)
	select {
	case <-d.wake:
		d.timer.Stop()
		d.state.Store(0)
		return true
	case <-d.timer.C:
		// Timed out: disarm so producers stop trying to wake us, and
		// drain any ring that raced with the timer.
		d.Disarm()
		return false
	}
}

// RelayTo makes every later Ring also ring up: a consumer stepped by a
// goroutine that serves several bells sleeps on that goroutine's bell,
// never on this one. A post counted here before the relay changed is
// still in Posts, which is what the stepping goroutine re-checks.
func (d *Doorbell) RelayTo(up *Doorbell) { d.relay.Store(up) }

// Wakeups returns how many times a sleeping consumer was woken, an
// indicator of how often the stack fell off the polling fast path.
func (d *Doorbell) Wakeups() uint64 { return d.rungs.Load() }

// Posts returns how many times the bell was rung, armed or not. It is the
// spinning consumer's one load per idle iteration: it polls its queues
// again only once the count has moved since it last looked.
func (d *Doorbell) Posts() uint64 { return d.posts.Load() }

// Staged records that the consumer's edge holds requests staged after its
// last flush, and Flushed that it no longer does; wiring.Edge calls them
// from the consumer's own loop. Unflushed lists the edges staged and not
// flushed since. After a poll that found nothing, an edge listed there
// breaks the doorbell contract: no ring will ever announce its requests.
func (d *Doorbell) Staged(edge string) { d.unflushed = append(d.unflushed, edge) }

// Flushed removes one entry for edge from the unflushed list.
func (d *Doorbell) Flushed(edge string) {
	for i, e := range d.unflushed {
		if e == edge {
			d.unflushed = append(d.unflushed[:i], d.unflushed[i+1:]...)
			return
		}
	}
}

// Unflushed lists the edges staged onto and not flushed since.
func (d *Doorbell) Unflushed() []string { return d.unflushed }

// Armed reports whether the consumer has armed the bell and not yet been
// woken or disarmed: it is parked, or about to be.
func (d *Doorbell) Armed() bool { return d.state.Load() == 1 }
