package channel

import (
	"fmt"
	"sync/atomic"

	"newtos/internal/msg"
	"newtos/internal/spsc"
	"newtos/internal/trace"
)

// DefaultDepth is the default queue depth (slots) for stack channels.
const DefaultDepth = 512

// Out is the producer end of a unidirectional channel queue. Each queue has
// exactly one producer and one consumer (paper §IV: "single-producer,
// single-consumer ... they do not require any locking").
type Out struct {
	ring  *spsc.Ring[msg.Req]
	bell  *Doorbell
	full  *fullMark
	stats *trace.BatchCounter
}

// fullMark turns a full ring into a doorbell post for its producer. A
// SendBatch that leaves a remainder raises the mark before it looks a second
// time, and a RecvBatch that frees slots takes it: either the second look
// finds the freed slots or the consumer finds the mark and rings the
// producer, so no interleaving strands a producer that stopped polling with
// its batch still staged. It is the starved-flag handshake of
// sockbuf.Buf's supply ring. Queues without a producer doorbell (NewQueue)
// carry none.
type fullMark struct {
	set      atomic.Bool
	producer *Doorbell
}

// take rings the producer once if a SendBatch found the ring full since the
// last take; the consumer calls it after freeing slots.
func (m *fullMark) take() {
	if m != nil && m.set.Load() && m.set.Swap(false) {
		m.producer.Ring()
	}
}

// Send enqueues r and rings the consumer's doorbell. It reports false when
// the queue is full; the paper mandates that senders must never block in
// that case — each server takes its own action (drop the packet, remember
// the request, ...).
func (o Out) Send(r msg.Req) bool {
	if o.ring == nil {
		return false
	}
	if !o.ring.TryEnqueue(r) {
		return false
	}
	o.bell.Ring()
	return true
}

// SendBatch enqueues as many of reqs as the queue accepts and returns the
// count moved. The consumer's doorbell is rung exactly once for the whole
// batch — this is the doorbell-coalescing contract: one wakeup per batch
// per hop, however many requests the batch carries. A batch the ring cuts
// short marks the queue, so the consumer's next RecvBatch rings this
// producer's doorbell and the remainder is retried.
func (o Out) SendBatch(reqs []msg.Req) int {
	if o.ring == nil || len(reqs) == 0 {
		return 0
	}
	n := o.ring.EnqueueBatch(reqs)
	if n < len(reqs) && o.full != nil {
		o.full.set.Store(true)
		n += o.ring.EnqueueBatch(reqs[n:])
	}
	if n > 0 {
		o.stats.Observe(n)
		o.bell.Ring()
	}
	return n
}

// Valid reports whether the endpoint is wired.
func (o Out) Valid() bool { return o.ring != nil }

// Len returns the approximate number of queued requests.
func (o Out) Len() int {
	if o.ring == nil {
		return 0
	}
	return o.ring.Len()
}

// Stats returns the send-side batch-size counter (nil on an unwired end).
// Only the batched entry points (SendBatch/RecvBatch) observe, keeping the
// cycle-counted per-slot path untouched; the data-path server loops move
// everything through the batched calls, so the counters see all fast-path
// traffic.
func (o Out) Stats() *trace.BatchCounter { return o.stats }

// In is the consumer end of a unidirectional channel queue.
type In struct {
	ring  *spsc.Ring[msg.Req]
	full  *fullMark
	stats *trace.BatchCounter
}

// Recv pops one request.
func (i In) Recv() (msg.Req, bool) {
	if i.ring == nil {
		return msg.Req{}, false
	}
	r, ok := i.ring.TryDequeue()
	if ok {
		i.full.take()
	}
	return r, ok
}

// RecvBatch pops up to len(dst) requests, returning the count. This is the
// server-loop drain primitive: one call moves a whole batch out of the ring
// with a single head publication. Freeing slots in a ring a SendBatch found
// full rings the producer.
func (i In) RecvBatch(dst []msg.Req) int {
	if i.ring == nil {
		return 0
	}
	n := i.ring.DequeueBatch(dst)
	if n > 0 {
		i.full.take()
	}
	i.stats.Observe(n)
	return n
}

// Empty reports whether the queue appears empty.
func (i In) Empty() bool { return i.ring == nil || i.ring.Empty() }

// Valid reports whether the endpoint is wired.
func (i In) Valid() bool { return i.ring != nil }

// Stats returns the receive-side batch-size counter (nil on an unwired end).
func (i In) Stats() *trace.BatchCounter { return i.stats }

// NewQueue builds one unidirectional queue of the given depth whose
// consumer is woken through bell. The queue carries a separately allocated,
// cache-line-padded batch counter per side so the producer's and consumer's
// counters do not false-share. No producer doorbell is known, so a full ring
// wakes nobody: a producer must retry on its own.
func NewQueue(depth int, bell *Doorbell) (Out, In, error) {
	return newQueue(depth, bell, nil)
}

// newQueue builds a queue whose consumer is woken through bell and, when
// producer is non-nil, whose producer is woken when a full ring frees up.
func newQueue(depth int, bell, producer *Doorbell) (Out, In, error) {
	r, err := spsc.New[msg.Req](depth)
	if err != nil {
		return Out{}, In{}, fmt.Errorf("channel: %w", err)
	}
	var full *fullMark
	if producer != nil {
		full = &fullMark{producer: producer}
	}
	return Out{ring: r, bell: bell, full: full, stats: &trace.BatchCounter{}},
		In{ring: r, full: full, stats: &trace.BatchCounter{}}, nil
}

// Duplex is one side's view of a bidirectional channel: a queue to the peer
// and a queue from it. The paper: "We must use two queues to set up
// communication in both directions."
type Duplex struct {
	// Out sends requests (or replies) to the peer.
	Out Out
	// In receives the peer's requests (or replies).
	In In
}

// Valid reports whether both directions are wired.
func (d Duplex) Valid() bool { return d.Out.Valid() && d.In.Valid() }

// NewDuplex creates a bidirectional channel between two servers. bellA wakes
// side A (when B sends, or when B frees a queue A found full), bellB wakes
// side B. Both directions share depth.
func NewDuplex(depth int, bellA, bellB *Doorbell) (a, b Duplex, err error) {
	aOut, bIn, err := newQueue(depth, bellB, bellA)
	if err != nil {
		return Duplex{}, Duplex{}, err
	}
	bOut, aIn, err := newQueue(depth, bellA, bellB)
	if err != nil {
		return Duplex{}, Duplex{}, err
	}
	return Duplex{Out: aOut, In: aIn}, Duplex{Out: bOut, In: bIn}, nil
}
