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
// Write that comes up short raises the mark before it looks a second time,
// and a Done that frees slots takes it: either the second look finds the
// freed slots or the consumer finds the mark and rings the producer, so no
// interleaving strands a producer that stopped polling with its batch
// still staged. It is the starved-flag handshake of sockbuf.Buf's supply
// ring. Queues without a producer doorbell (NewQueue) carry none.
type fullMark struct {
	set      atomic.Bool
	producer *Doorbell
}

// take rings the producer once if a Write found the ring full since the
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

// Write copies as many of reqs as fit into the queue's free slots after
// the pending ones already written since the last Publish, and returns the
// count written; the consumer sees none of them before Publish. Each
// request is written once, by its used bytes: the header and the valid
// chain Ptrs[:NPtr], and the slot's stale entries past that are cleared,
// so a slot equals the request for every request whose Ptrs past NPtr are
// zero (every one built by a literal and SetChain/AppendChain). A Write
// the ring cuts short marks the queue, so the consumer's next Done rings
// this producer's doorbell and the remainder is retried.
func (o Out) Write(pending int, reqs []msg.Req) int {
	if o.ring == nil {
		return 0
	}
	n := o.write(pending, reqs)
	if n < len(reqs) && o.full != nil {
		o.full.set.Store(true)
		n += o.write(pending+n, reqs[n:])
	}
	return n
}

// write fills at most two Writable runs: up to the buffer's end, then from
// its start.
func (o Out) write(pending int, reqs []msg.Req) int {
	n := 0
	for k := 0; k < 2 && n < len(reqs); k++ {
		run := o.ring.Writable(pending+n, len(reqs)-n)
		for i := range run {
			put(&run[i], &reqs[n+i])
		}
		n += len(run)
	}
	return n
}

// put writes r into slot s by its used bytes.
func put(s, r *msg.Req) {
	old, n := min(s.NPtr, msg.MaxPtrs), min(r.NPtr, msg.MaxPtrs)
	s.ID, s.Op, s.NPtr, s.Status, s.Flow, s.Arg = r.ID, r.Op, r.NPtr, r.Status, r.Flow, r.Arg
	copy(s.Ptrs[:n], r.Ptrs[:n])
	if old > n {
		clear(s.Ptrs[n:old])
	}
}

// Publish makes the next n written requests visible to the consumer —
// one tail store — and rings the consumer's doorbell exactly once for all
// of them. This is the doorbell-coalescing contract: one wakeup per batch
// per hop, however many requests the batch carries.
func (o Out) Publish(n int) {
	if n <= 0 {
		return
	}
	o.ring.Publish(n)
	o.stats.Observe(n)
	o.bell.Ring()
}

// Unpublished appends copies of the pending requests written since the
// last Publish to dst. The producer abandons those slots afterwards: the
// next Write overwrites them.
func (o Out) Unpublished(pending int, dst []msg.Req) []msg.Req {
	for n := 0; n < pending; {
		run := o.ring.Writable(n, pending-n)
		dst = append(dst, run...)
		n += len(run)
	}
	return dst
}

// SendBatch writes and publishes as many of reqs as the queue accepts and
// returns the count moved, with one doorbell ring. It and RecvBatch remain
// for the byte-frozen bench/layers, which times them; the stack's loops
// use Write, Publish, View and Done through wiring.Edge.
func (o Out) SendBatch(reqs []msg.Req) int {
	n := o.Write(0, reqs)
	o.Publish(n)
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
// Only the batched entry points (Publish/Done) observe, keeping the
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

// View returns up to limit queued requests where they lie in the ring:
// the run from the head to the buffer's end, so a queue that wraps is
// viewed twice. This is the server-loop drain primitive; the requests stay
// the consumer's until Done, and nobody may keep the slice, or a pointer
// into it, past Done.
func (i In) View(limit int) []msg.Req {
	if i.ring == nil {
		return nil
	}
	return i.ring.Readable(limit)
}

// Done hands the n oldest viewed requests back to the producer with one
// head store. Freeing slots in a ring a Write found full rings the
// producer.
func (i In) Done(n int) {
	if i.ring == nil || n <= 0 {
		return
	}
	i.ring.Release(n)
	i.full.take()
	i.stats.Observe(n)
}

// RecvBatch copies up to len(dst) requests out of one View and returns the
// count.
func (i In) RecvBatch(dst []msg.Req) int {
	n := copy(dst, i.View(len(dst)))
	i.Done(n)
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
