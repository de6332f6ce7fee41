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
// EnqueueBatch and DequeueBatch are the batched fast path: N slots move
// with one tail (or head) publication, and both are partial-accept — a
// full or emptying ring moves what fits and reports the count, so nobody
// ever blocks (paper §IV-A). TryEnqueue/TryDequeue remain the single-slot
// primitives underneath.
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

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

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

// EnqueueBatch appends as many elements of src as there is room for and
// returns the number accepted (possibly zero on a full ring). The tail is
// published once for the whole batch, so the consumer observes the batch
// atomically-in-order. It must be called only by the producer goroutine.
func (r *Ring[T]) EnqueueBatch(src []T) int {
	t := r.tail.Load()
	free := uint64(len(r.buf)) - (t - r.cachedHead)
	if free < uint64(len(src)) {
		r.cachedHead = r.head.Load()
		free = uint64(len(r.buf)) - (t - r.cachedHead)
	}
	n := len(src)
	if uint64(n) > free {
		n = int(free)
	}
	for i := 0; i < n; i++ {
		r.buf[(t+uint64(i))&r.mask] = src[i]
	}
	if n > 0 {
		r.tail.Store(t + uint64(n))
	}
	return n
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

// Peek returns the oldest element without removing it.
// It must be called only by the consumer goroutine.
func (r *Ring[T]) Peek() (T, bool) {
	var zero T
	h := r.head.Load()
	if h >= r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h >= r.cachedTail {
			return zero, false
		}
	}
	return r.buf[h&r.mask], true
}

// DequeueBatch removes up to len(dst) elements into dst and returns the
// number moved. It must be called only by the consumer goroutine.
func (r *Ring[T]) DequeueBatch(dst []T) int {
	h := r.head.Load()
	if h >= r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h >= r.cachedTail {
			return 0 // the empty poll touches no slot
		}
	}
	n := min(int(r.cachedTail-h), len(dst))
	if n == 0 {
		return 0
	}
	// The n slots are at most two runs of the buffer: up to its end, then
	// from its start. Moved slots are cleared to release references for
	// GC.
	start := int(h & r.mask)
	first := copy(dst[:n], r.buf[start:])
	clear(r.buf[start : start+first])
	if first < n {
		copy(dst[first:n], r.buf[:n-first])
		clear(r.buf[:n-first])
	}
	r.head.Store(h + uint64(n))
	return n
}

// Empty reports whether the ring appears empty from the consumer side.
func (r *Ring[T]) Empty() bool {
	return r.head.Load() >= r.tail.Load()
}
