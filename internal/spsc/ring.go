// Package spsc provides a bounded, lock-free, single-producer
// single-consumer ring buffer.
//
// It is the queue primitive behind NewtOS fast-path channels (paper §IV):
// a cache-friendly FastForward-style ring in which the producer and consumer
// positions live in different cache lines so they do not bounce between
// cores, and each side additionally caches the opposite index so the common
// case touches only local memory.
//
// A Ring is safe for exactly one producing goroutine and one consuming
// goroutine. All operations are non-blocking; the channel layer adds
// doorbell-based sleeping on top.
//
// The batched fast path works on the slots in place, so an element is
// copied once, into its slot, and read where it lies. The producer fills
// Writable runs and makes everything it wrote visible with one Publish (one
// tail store); the consumer reads a Readable run and hands it back with one
// Release (one head store). Both sides are partial: a full or empty ring
// yields a short or empty run, so nobody ever blocks (paper §IV-A).
// Released slots are not cleared: the element types the stack queues,
// msg.Req and shm.RichPtr, hold no Go pointers, so a stale slot keeps
// nothing alive. TryEnqueue/TryDequeue remain the single-slot primitives.
package spsc

import (
	"fmt"
	"sync/atomic"
)

// cacheLine is the assumed cache-line size used for padding. 64 bytes is
// correct for effectively all current x86-64 and arm64 parts.
const cacheLine = 64

// Ring is a bounded single-producer single-consumer queue of T.
//
// The zero value is not usable; construct with New.
type Ring[T any] struct {
	_ [cacheLine]byte

	// The consumer's line. head is the next slot the consumer will read:
	// written only by the consumer, read by the producer when its cached
	// copy runs out. cachedTail is the consumer's local copy of tail, so an
	// empty poll reads this line and the producer's, nothing else.
	head       atomic.Uint64
	cachedTail uint64
	_          [cacheLine - 16]byte

	// The producer's line. tail is the next slot the producer will write:
	// written only by the producer, read by the consumer when its cached
	// copy runs out. cachedHead is the producer's local copy of head.
	tail       atomic.Uint64
	cachedHead uint64
	_          [cacheLine - 16]byte

	mask uint64
	buf  []T
}

// New returns a ring with capacity for exactly capacity elements.
// Capacity must be a power of two and at least 2.
func New[T any](capacity int) (*Ring[T], error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("spsc: capacity %d is not a power of two >= 2", capacity)
	}
	return &Ring[T]{
		mask: uint64(capacity - 1),
		buf:  make([]T, capacity),
	}, nil
}

// MustNew is New for static capacities; it panics on invalid capacity.
// It is intended for package-level wiring where the capacity is a constant.
func MustNew[T any](capacity int) *Ring[T] {
	r, err := New[T](capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Len returns a point-in-time estimate of the number of queued elements.
// It is exact when called from either the producer or consumer goroutine
// while the other side is quiescent, and approximate otherwise.
func (r *Ring[T]) Len() int {
	t := r.tail.Load()
	h := r.head.Load()
	return int(t - h)
}

// TryEnqueue appends v and reports whether there was room.
// It must be called only by the producer goroutine.
func (r *Ring[T]) TryEnqueue(v T) bool {
	t := r.tail.Load()
	if t-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// Writable returns free slots the producer may fill: the run that starts
// pending slots past the tail (the slots written since the last Publish)
// and holds at most want slots, cut at the buffer's end, so a write that
// wraps asks twice. It is empty on a full ring. What is written there stays
// invisible to the consumer until Publish. It must be called only by the
// producer goroutine.
func (r *Ring[T]) Writable(pending, want int) []T {
	t := r.tail.Load() + uint64(pending)
	free := uint64(len(r.buf)) - (t - r.cachedHead)
	if free < uint64(want) {
		r.cachedHead = r.head.Load()
		free = uint64(len(r.buf)) - (t - r.cachedHead)
	}
	start := t & r.mask
	n := min(uint64(want), free, uint64(len(r.buf))-start)
	return r.buf[start : start+n]
}

// Publish makes the next n written slots visible to the consumer with one
// tail store, so the consumer observes the batch atomically, in order. It
// must be called only by the producer goroutine.
func (r *Ring[T]) Publish(n int) {
	if n > 0 {
		r.tail.Store(r.tail.Load() + uint64(n))
	}
}

// TryDequeue removes and returns the oldest element.
// It must be called only by the consumer goroutine.
func (r *Ring[T]) TryDequeue() (T, bool) {
	var zero T
	h := r.head.Load()
	if h >= r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h >= r.cachedTail {
			return zero, false
		}
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero // release references for GC
	r.head.Store(h + 1)
	return v, true
}

// Readable returns the queued slots from the head: at most limit of them,
// cut at the buffer's end, so a queue that wraps is read in two runs. The
// slots are the consumer's until Release hands them back; the empty poll
// touches no slot. It must be called only by the consumer goroutine.
func (r *Ring[T]) Readable(limit int) []T {
	h := r.head.Load()
	if h >= r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h >= r.cachedTail {
			return nil
		}
	}
	start := h & r.mask
	n := min(uint64(limit), r.cachedTail-h, uint64(len(r.buf))-start)
	return r.buf[start : start+n]
}

// Release hands the n oldest slots back to the producer with one head
// store. It must be called only by the consumer goroutine.
func (r *Ring[T]) Release(n int) {
	if n > 0 {
		r.head.Store(r.head.Load() + uint64(n))
	}
}

// Empty reports whether the ring appears empty from the consumer side.
func (r *Ring[T]) Empty() bool {
	return r.head.Load() >= r.tail.Load()
}
