package sockbuf

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"newtos/internal/shm"
)

func newBuf(t *testing.T) (*shm.Space, *Buf) {
	t.Helper()
	space := shm.NewSpace()
	b, err := New(space, "test", 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	return space, b
}

func TestGetWriteRecycleCycle(t *testing.T) {
	space, b := newBuf(t)
	if b.Free() != 4 {
		t.Fatalf("Free = %d", b.Free())
	}
	ptr, ok := b.Get()
	if !ok {
		t.Fatal("no chunk")
	}
	w, err := b.Write(ptr, []byte("payload bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len != 13 {
		t.Fatalf("written ptr len = %d", w.Len)
	}
	v, err := space.View(w)
	if err != nil || !bytes.Equal(v, []byte("payload bytes")) {
		t.Fatalf("view = %q, %v", v, err)
	}
	if b.Free() != 3 {
		t.Fatalf("Free after get = %d", b.Free())
	}
	// Recycling a sub-slice returns the whole chunk.
	b.Recycle(w.Slice(3, 10))
	if b.Free() != 4 {
		t.Fatalf("Free after recycle = %d", b.Free())
	}
}

func TestExhaustionIsBackpressure(t *testing.T) {
	_, b := newBuf(t)
	for i := 0; i < 4; i++ {
		if _, ok := b.Get(); !ok {
			t.Fatalf("chunk %d missing", i)
		}
	}
	if _, ok := b.Get(); ok {
		t.Fatal("got a 5th chunk from a 4-chunk buffer")
	}
}

// An app that finds the buffer exhausted waits for the writable edge, and a
// transport owes that edge when TakeStarved says so after a recycle. The two
// sides run concurrently here, as in the stack: the app sends every chunk it
// gets, the transport recycles each and posts the edge when it is owed, and
// no interleaving may leave the app waiting with chunks back in the ring.
// Deciding "owed" from the ring's length read before recycling loses that
// wakeup when the app takes the last chunk in between: on a 2-core box about
// one run in six of 200k sends meets that interleaving.
func TestExhaustedGetIsAlwaysWoken(t *testing.T) {
	sends := 200_000
	if testing.Short() {
		sends = 20_000
	}
	for _, maxChunks := range []int{2, 4} { // static; elastic, growing into the pool
		t.Run(strconv.Itoa(maxChunks), func(t *testing.T) {
			b, err := NewElastic(shm.NewSpace(), "race", 64, 2, maxChunks)
			if err != nil {
				t.Fatal(err)
			}
			sent := make(chan shm.RichPtr, maxChunks) // every chunk: the app never blocks on it
			edge := make(chan struct{}, 1)            // sticky, like a socket's event bits
			done := make(chan struct{})
			go func() { // the transport
				defer close(done)
				for ptr := range sent {
					b.Recycle(ptr)
					if b.TakeStarved() {
						select {
						case edge <- struct{}{}:
						default:
						}
					}
				}
			}()
			defer func() { close(sent); <-done }()
			for i := 0; i < sends; i++ {
				ptr, ok := b.Get()
				for !ok {
					select {
					case <-edge:
					case <-time.After(2 * time.Second):
						t.Fatalf("send %d: the app waits with %d chunks in the ring", i, b.Free())
					}
					ptr, ok = b.Get()
				}
				sent <- ptr
			}
		})
	}
}

func TestWriteOversizeRejected(t *testing.T) {
	_, b := newBuf(t)
	ptr, _ := b.Get()
	if _, err := b.Write(ptr, make([]byte, 513)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestChunkSize(t *testing.T) {
	_, b := newBuf(t)
	if b.ChunkSize() != 512 {
		t.Fatalf("ChunkSize = %d", b.ChunkSize())
	}
}

func newElasticBuf(t *testing.T) (*shm.Space, *Buf) {
	t.Helper()
	space := shm.NewSpace()
	b, err := NewElastic(space, "etest", 512, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	return space, b
}

func TestElasticGrowsOnDemand(t *testing.T) {
	_, b := newElasticBuf(t)
	ptrs := make([]shm.RichPtr, 0, 16)
	for i := 0; i < 16; i++ {
		ptr, ok := b.Get()
		if !ok {
			t.Fatalf("chunk %d missing: elastic buffer did not grow", i)
		}
		ptrs = append(ptrs, ptr)
	}
	if b.Pool().Segments() != 4 {
		t.Fatalf("segments = %d, want 4", b.Pool().Segments())
	}
	// Writes through grown chunks work like base chunks.
	if _, err := b.Write(ptrs[15], []byte("grown")); err != nil {
		t.Fatal(err)
	}
}

// Regression test for the exhaustion contract: a buffer at its hard cap
// signals backpressure through ok=false — the same EWOULDBLOCK-style
// signal as a static buffer — never an error or a bogus chunk.
func TestElasticCapIsBackpressure(t *testing.T) {
	_, b := newElasticBuf(t)
	for i := 0; i < 16; i++ {
		if _, ok := b.Get(); !ok {
			t.Fatalf("chunk %d missing", i)
		}
	}
	if ptr, ok := b.Get(); ok {
		t.Fatalf("got chunk %v beyond the 16-chunk cap", ptr)
	}
	// Pressure is observable on the backing pool.
	if _, _, pr := b.Pool().ElasticStats(); pr == 0 {
		t.Fatal("hard allocation failure not counted as pressure")
	}
}

// A grown buffer keeps its size while the socket is open: every recycled
// chunk, grown segment or base, goes back into the ring.
func TestElasticKeepsGrownChunksInTheRing(t *testing.T) {
	_, b := newElasticBuf(t)
	ptrs := make([]shm.RichPtr, 0, 16)
	for i := 0; i < 16; i++ {
		ptr, ok := b.Get()
		if !ok {
			t.Fatal("missing chunk")
		}
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		b.Recycle(ptr)
	}
	if b.Free() != 16 || b.Pool().Segments() != 4 {
		t.Fatalf("ring holds %d chunks over %d segments, want all 16 over 4", b.Free(), b.Pool().Segments())
	}
	// The next 16 Gets come from the ring and grow nothing.
	for i := 0; i < 16; i++ {
		if _, ok := b.Get(); !ok {
			t.Fatalf("chunk %d missing", i)
		}
	}
	if g, _, _ := b.Pool().ElasticStats(); g != 3 {
		t.Fatalf("grows = %d, want the first 3 only", g)
	}
}
