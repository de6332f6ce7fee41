package spsc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestHeaderLayout pins the ring header to three cache lines: a leading
// pad, the consumer's line (head and its copy of tail) and the producer's
// line (tail and its copy of head). An empty DequeueBatch then reads two
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
	if n := r.DequeueBatch(dst); n != 4 {
		t.Fatalf("batch = %d, want 4", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
	big := make([]int, 32)
	if n := r.DequeueBatch(big); n != 6 {
		t.Fatalf("batch = %d, want 6", n)
	}
	if big[0] != 4 || big[5] != 9 {
		t.Fatalf("batch contents wrong: %v", big[:6])
	}
	if n := r.DequeueBatch(big); n != 0 {
		t.Fatalf("batch on empty = %d", n)
	}
}

// TestDequeueBatchWrapsAndClears: a batch that runs past the end of the
// buffer comes out in order, and every slot it moved is cleared, so the
// ring keeps no reference to what it handed out.
func TestDequeueBatchWrapsAndClears(t *testing.T) {
	r := MustNew[*int](8)
	vals := make([]int, 11)
	for i := range vals {
		vals[i] = i
	}
	for i := 0; i < 6; i++ {
		r.TryEnqueue(&vals[i])
	}
	dst := make([]*int, 8)
	if n := r.DequeueBatch(dst); n != 6 {
		t.Fatalf("batch = %d, want 6", n)
	}
	for i := 6; i < 11; i++ {
		r.TryEnqueue(&vals[i])
	}
	if n := r.DequeueBatch(dst); n != 5 {
		t.Fatalf("wrapping batch = %d, want 5", n)
	}
	for i, p := range dst[:5] {
		if *p != 6+i {
			t.Fatalf("dst[%d] = %d, want %d", i, *p, 6+i)
		}
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds %d", i, *p)
		}
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

func TestEnqueueBatchFIFO(t *testing.T) {
	r := MustNew[int](16)
	if n := r.EnqueueBatch([]int{0, 1, 2, 3, 4}); n != 5 {
		t.Fatalf("EnqueueBatch = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if n := r.EnqueueBatch(nil); n != 0 {
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
	if n := r.EnqueueBatch(src); n != 8 {
		t.Fatalf("EnqueueBatch = %d, want 8", n)
	}
	dst := make([]int, 8)
	if n := r.DequeueBatch(dst); n != 8 {
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
	if n := r.EnqueueBatch([]int{100, 101, 102, 103, 104, 105}); n != 3 {
		t.Fatalf("EnqueueBatch on nearly-full ring = %d, want 3", n)
	}
	// Full ring accepts nothing.
	if n := r.EnqueueBatch([]int{9}); n != 0 {
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
	if n := r.EnqueueBatch([]int{103, 104, 105}); n != 3 {
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
			n := r.EnqueueBatch(src)
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
		n := r.DequeueBatch(dst)
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
