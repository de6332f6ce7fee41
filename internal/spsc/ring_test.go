package spsc

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestHeaderLayout pins the ring header to three cache lines: a leading
// pad, the consumer's line (head and its copy of tail) and the producer's
// line (tail and its copy of head). An empty Readable then reads two
// header lines.
func TestHeaderLayout(t *testing.T) {
	var r Ring[int]
	line := func(off uintptr) uintptr { return off / cacheLine }
	if line(unsafe.Offsetof(r.head)) != 1 || line(unsafe.Offsetof(r.cachedTail)) != 1 {
		t.Errorf("head at %d, cachedTail at %d: want both on line 1",
			unsafe.Offsetof(r.head), unsafe.Offsetof(r.cachedTail))
	}
	if line(unsafe.Offsetof(r.tail)) != 2 || line(unsafe.Offsetof(r.cachedHead)) != 2 {
		t.Errorf("tail at %d, cachedHead at %d: want both on line 2",
			unsafe.Offsetof(r.tail), unsafe.Offsetof(r.cachedHead))
	}
	if off := unsafe.Offsetof(r.mask); off != 3*cacheLine {
		t.Errorf("mask at %d: want the header to end after 3 lines (%d)", off, 3*cacheLine)
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, 1, 3, 5, 6, 7, 9, 100, -4} {
		if _, err := New[int](c); err == nil {
			t.Errorf("New(%d): expected error", c)
		}
	}
	for _, c := range []int{2, 4, 8, 1024} {
		r, err := New[int](c)
		if err != nil {
			t.Fatalf("New(%d): %v", c, err)
		}
		if r.Cap() != c {
			t.Errorf("Cap() = %d, want %d", r.Cap(), c)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3) did not panic")
		}
	}()
	MustNew[int](3)
}

func TestEnqueueDequeueFIFO(t *testing.T) {
	r := MustNew[int](8)
	for i := 0; i < 8; i++ {
		if !r.TryEnqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.TryEnqueue(99) {
		t.Fatal("enqueue into full ring succeeded")
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	for i := 0; i < 8; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.TryDequeue(); ok {
		t.Fatal("dequeue from empty ring succeeded")
	}
	if !r.Empty() {
		t.Fatal("ring should be empty")
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	r := MustNew[string](4)
	if _, ok := r.Peek(); ok {
		t.Fatal("peek on empty ring succeeded")
	}
	r.TryEnqueue("a")
	for i := 0; i < 3; i++ {
		v, ok := r.Peek()
		if !ok || v != "a" {
			t.Fatalf("peek = (%q,%v)", v, ok)
		}
	}
	v, ok := r.TryDequeue()
	if !ok || v != "a" {
		t.Fatalf("dequeue after peek = (%q,%v)", v, ok)
	}
}

func TestWrapAround(t *testing.T) {
	r := MustNew[int](4)
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.TryEnqueue(next) {
				t.Fatal("enqueue failed")
			}
			next++
		}
		for i := 0; i < 3; i++ {
			v, ok := r.TryDequeue()
			if !ok || v != next-3+i {
				t.Fatalf("round %d: dequeue = (%d,%v), want %d", round, v, ok, next-3+i)
			}
		}
	}
}

func TestDequeueBatch(t *testing.T) {
	r := MustNew[int](16)
	for i := 0; i < 10; i++ {
		r.TryEnqueue(i)
	}
	dst := make([]int, 4)
	if n := dequeueBatch(r, dst); n != 4 {
		t.Fatalf("batch = %d, want 4", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
	big := make([]int, 32)
	if n := dequeueBatch(r, big); n != 6 {
		t.Fatalf("batch = %d, want 6", n)
	}
	if big[0] != 4 || big[5] != 9 {
		t.Fatalf("batch contents wrong: %v", big[:6])
	}
	if n := dequeueBatch(r, big); n != 0 {
		t.Fatalf("batch on empty = %d", n)
	}
}

// TestReadableWrapsAtTheBufferEnd: a queue that runs past the end of the
// buffer is read in two runs, in order, and each run is the ring's own
// slots, not a copy: the consumer reads the element where the producer
// wrote it.
func TestReadableWrapsAtTheBufferEnd(t *testing.T) {
	r := MustNew[int](8)
	for i := 0; i < 6; i++ {
		r.TryEnqueue(i)
	}
	if n := dequeueBatch(r, make([]int, 8)); n != 6 {
		t.Fatalf("batch = %d, want 6", n)
	}
	for i := 6; i < 11; i++ {
		r.TryEnqueue(i)
	}
	first := r.Readable(8)
	if len(first) != 2 || first[0] != 6 || first[1] != 7 || &first[0] != &r.buf[6] {
		t.Fatalf("first run = %v at slot %p, want [6 7] in place at %p", first, &first[0], &r.buf[6])
	}
	r.Release(len(first))
	second := r.Readable(8)
	if len(second) != 3 || second[0] != 8 || second[2] != 10 || &second[0] != &r.buf[0] {
		t.Fatalf("second run = %v, want [8 9 10] from slot 0", second)
	}
	r.Release(len(second))
	if run := r.Readable(8); len(run) != 0 {
		t.Fatalf("drained ring still reads %v", run)
	}
}

// TestWritablePublishReadableRelease drives the in-place primitives
// through empty, full and wrapping rings: written slots stay invisible
// until Publish, a full ring offers no slot until Release, a write
// across the buffer's end takes two runs, and a Readable run holds its
// slots until Release however much the producer writes meanwhile.
func TestWritablePublishReadableRelease(t *testing.T) {
	r := MustNew[int](4)
	if run := r.Readable(4); len(run) != 0 {
		t.Fatalf("empty ring reads %v", run)
	}
	w := r.Writable(0, 3)
	if len(w) != 3 {
		t.Fatalf("Writable(0, 3) on an empty ring = %d slots", len(w))
	}
	copy(w, []int{1, 2, 3})
	if run := r.Readable(4); len(run) != 0 || r.Len() != 0 {
		t.Fatalf("written, unpublished slots are readable: %v, Len %d", run, r.Len())
	}
	if w := r.Writable(3, 5); len(w) != 1 {
		t.Fatalf("Writable(3, 5) = %d slots, want the 1 free after 3 pending", len(w))
	} else {
		w[0] = 4
	}
	r.Publish(4)
	if w := r.Writable(0, 1); len(w) != 0 {
		t.Fatalf("full ring offers %d slots", len(w))
	}
	run := r.Readable(2)
	if len(run) != 2 || run[0] != 1 || run[1] != 2 {
		t.Fatalf("Readable(2) = %v, want [1 2]", run)
	}
	if w := r.Writable(0, 4); len(w) != 0 {
		t.Fatalf("slots held by the consumer are writable: %d", len(w))
	}
	r.Release(2)

	// The tail is at 4, the head at 2: a write of three wraps. Its first
	// run is the two freed slots, its second the third after pending ones.
	w = r.Writable(0, 3)
	if len(w) != 2 || &w[0] != &r.buf[0] {
		t.Fatalf("Writable(0, 3) = %d slots from %p, want 2 from slot 0", len(w), &w[0])
	}
	copy(w, []int{5, 6})
	if w := r.Writable(2, 1); len(w) != 0 {
		t.Fatalf("Writable past a full ring = %d slots", len(w))
	}
	r.Publish(2)
	var got []int
	for run := r.Readable(8); len(run) > 0; run = r.Readable(8) {
		got = append(got, run...)
		r.Release(len(run))
	}
	if want := []int{3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
	if !r.Empty() || r.Len() != 0 {
		t.Fatal("ring not empty after reading everything")
	}
	r.Publish(0)
	r.Release(0)
	if r.Len() != 0 {
		t.Fatal("Publish(0)/Release(0) moved the ring")
	}
}

// TestConcurrentOrdering drives a producer and consumer on separate
// goroutines and checks that every element arrives exactly once, in order.
func TestConcurrentOrdering(t *testing.T) {
	const n = 200000
	r := MustNew[int](256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if r.TryEnqueue(i) {
				i++
			}
		}
	}()
	for i := 0; i < n; {
		if v, ok := r.TryDequeue(); ok {
			if v != i {
				t.Errorf("got %d, want %d", v, i)
				break
			}
			i++
		}
	}
	wg.Wait()
}

// TestQuickFIFO is a property test: for any sequence of enqueues that fits,
// dequeuing returns the same sequence.
func TestQuickFIFO(t *testing.T) {
	prop := func(vals []uint32) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		r := MustNew[uint32](64)
		for _, v := range vals {
			if !r.TryEnqueue(v) {
				return false
			}
		}
		for _, want := range vals {
			got, ok := r.TryDequeue()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.TryDequeue()
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInterleaved property: any interleaving of enqueue/dequeue
// operations preserves FIFO order and conservation of elements.
func TestQuickInterleaved(t *testing.T) {
	prop := func(ops []bool) bool {
		r := MustNew[int](8)
		nextIn, nextOut := 0, 0
		for _, isEnq := range ops {
			if isEnq {
				if r.TryEnqueue(nextIn) {
					nextIn++
				}
			} else {
				if v, ok := r.TryDequeue(); ok {
					if v != nextOut {
						return false
					}
					nextOut++
				}
			}
		}
		return nextOut <= nextIn && nextIn-nextOut == r.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnqueueDequeueSameGoroutine(b *testing.B) {
	r := MustNew[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.TryEnqueue(uint64(i))
		r.TryDequeue()
	}
}

// BenchmarkCrossCoreEnqueue measures the paper's headline micro-number: the
// cost of asynchronously enqueuing a message while a consumer on another
// core keeps draining (§IV reports ~30 cycles).
func BenchmarkCrossCoreEnqueue(b *testing.B) {
	r := MustNew[uint64](4096)
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := r.TryDequeue(); !ok {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !r.TryEnqueue(uint64(i)) {
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// enqueueBatch appends what fits of src through the in-place primitives:
// it fills at most two Writable runs and publishes them with one tail
// store, the way channel.Out.Write and Publish do.
func enqueueBatch[T any](r *Ring[T], src []T) int {
	n := 0
	for k := 0; k < 2 && n < len(src); k++ {
		n += copy(r.Writable(n, len(src)-n), src[n:])
	}
	r.Publish(n)
	return n
}

// dequeueBatch moves up to len(dst) queued elements into dst, one Readable
// run and one Release at a time.
func dequeueBatch[T any](r *Ring[T], dst []T) int {
	n := 0
	for n < len(dst) {
		run := r.Readable(len(dst) - n)
		if len(run) == 0 {
			break
		}
		n += copy(dst[n:], run)
		r.Release(len(run))
	}
	return n
}

func TestEnqueueBatchFIFO(t *testing.T) {
	r := MustNew[int](16)
	if n := enqueueBatch(r, []int{0, 1, 2, 3, 4}); n != 5 {
		t.Fatalf("EnqueueBatch = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if n := enqueueBatch(r, nil); n != 0 {
		t.Fatalf("EnqueueBatch(nil) = %d, want 0", n)
	}
}

func TestEnqueueBatchWraparound(t *testing.T) {
	r := MustNew[int](8)
	// Advance head/tail so the next batch must wrap the buffer edge.
	for i := 0; i < 6; i++ {
		if !r.TryEnqueue(i) {
			t.Fatal("prefill enqueue failed")
		}
	}
	for i := 0; i < 6; i++ {
		if _, ok := r.TryDequeue(); !ok {
			t.Fatal("prefill dequeue failed")
		}
	}
	// Ring is empty with tail at 6: an 8-element batch spans the wrap.
	src := []int{10, 11, 12, 13, 14, 15, 16, 17}
	if n := enqueueBatch(r, src); n != 8 {
		t.Fatalf("EnqueueBatch = %d, want 8", n)
	}
	dst := make([]int, 8)
	if n := dequeueBatch(r, dst); n != 8 {
		t.Fatalf("DequeueBatch = %d, want 8", n)
	}
	for i, v := range dst {
		if v != src[i] {
			t.Fatalf("dst[%d] = %d, want %d (wraparound order broken)", i, v, src[i])
		}
	}
}

func TestEnqueueBatchPartialAcceptWhenNearlyFull(t *testing.T) {
	r := MustNew[int](8)
	for i := 0; i < 5; i++ {
		r.TryEnqueue(i)
	}
	// Only 3 slots free: a batch of 6 is partially accepted.
	if n := enqueueBatch(r, []int{100, 101, 102, 103, 104, 105}); n != 3 {
		t.Fatalf("EnqueueBatch on nearly-full ring = %d, want 3", n)
	}
	// Full ring accepts nothing.
	if n := enqueueBatch(r, []int{9}); n != 0 {
		t.Fatalf("EnqueueBatch on full ring = %d, want 0", n)
	}
	want := []int{0, 1, 2, 3, 4, 100, 101, 102}
	for i, w := range want {
		v, ok := r.TryDequeue()
		if !ok || v != w {
			t.Fatalf("dequeue %d = (%d,%v), want (%d,true)", i, v, ok, w)
		}
	}
	// Space reclaimed: the rejected tail can go in now.
	if n := enqueueBatch(r, []int{103, 104, 105}); n != 3 {
		t.Fatalf("EnqueueBatch after drain = %d, want 3", n)
	}
}

func TestEnqueueBatchConcurrentWithDequeueBatch(t *testing.T) {
	const total = 20000
	r := MustNew[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := make([]int, 0, 16)
		next := 0
		for next < total {
			src = src[:0]
			for i := 0; i < 16 && next+i < total; i++ {
				src = append(src, next+i)
			}
			n := enqueueBatch(r, src)
			next += n
			if n < len(src) {
				// Ring full: yield, then re-offer the rejected suffix.
				runtime.Gosched()
			}
		}
	}()
	dst := make([]int, 32)
	want := 0
	for want < total {
		n := dequeueBatch(r, dst)
		for i := 0; i < n; i++ {
			if dst[i] != want {
				t.Fatalf("got %d, want %d (order broken across batches)", dst[i], want)
			}
			want++
		}
		if n == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if !r.Empty() {
		t.Fatal("ring not empty after draining everything")
	}
}
