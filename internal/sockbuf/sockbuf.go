// Package sockbuf implements the per-socket shared data buffers of the
// stack's user-space interface (paper §V-B): "opening a socket also exports
// shared memory buffer to the applications where the servers expect the
// data. ... The actual data bypass the SYSCALL [server]".
//
// A Buf is a transport-owned chunk pool whose free chunks are handed to the
// application through a single-producer single-consumer supply ring:
//
//	transport (producer) --free chunks--> supply ring --> app (consumer)
//	app writes payload into a chunk, cites it in a send request
//	transport frees the chunk after the data left the machine (UDP) or was
//	acknowledged (TCP) and recycles it into the ring
//
// An exhausted ring is back-pressure: the application blocks in send until
// the stack has drained earlier data. A Get that comes up empty raises the
// buffer's starved flag before it looks a second time, and the transport
// takes the flag after it recycles (TakeStarved): either the second look
// finds the recycled chunk or the transport finds the flag and owes the
// writable edge, so no interleaving of the two sides loses the wakeup.
//
// Elastic buffers (NewElastic) provision sockets for the common case
// instead of the worst: a socket starts with a small base complement and
// the backing pool grows segment by segment while the app outruns the ring,
// up to a hard cap — at which point Get returning ok=false is the same
// back-pressure signal as a static buffer. A buffer does not shrink while
// its socket is open: a grown chunk is recycled into the ring like any
// other, and the owning transport releases the buffer whole (Destroy) when
// the socket is done with it, so socket memory scales with the sockets
// that send.
package sockbuf

import (
	"fmt"
	"sync/atomic"

	"newtos/internal/shm"
	"newtos/internal/spsc"
)

// DefaultChunks and DefaultChunkSize give each socket 64 KB of TX buffer —
// one full TSO burst (16 × 4 KB). ElasticBaseChunks is the initial
// complement of an elastic socket buffer: 16 KB that grow on demand to the
// same 64 KB worst case.
const (
	DefaultChunks     = 16
	DefaultChunkSize  = 4096
	ElasticBaseChunks = 4
)

// Buf is one socket's transmit buffer.
type Buf struct {
	pool   *shm.Pool
	supply *spsc.Ring[shm.RichPtr]
	// elastic buffers allocate from the pool, growing it, once the ring
	// is empty.
	elastic bool
	// starved is set by the app when Get comes up empty and cleared by the
	// transport that owes it the writable edge (TakeStarved).
	starved atomic.Bool
}

// New allocates a static socket buffer in space, owned by owner. All chunks
// start out in the supply ring and the buffer never grows.
func New(space *shm.Space, owner string, chunkSize, nChunks int) (*Buf, error) {
	return build(space, owner, chunkSize, nChunks, nChunks)
}

// NewElastic allocates an elastic socket buffer: baseChunks at first, grown
// on demand up to maxChunks (rounded up to whole base-sized segments).
func NewElastic(space *shm.Space, owner string, chunkSize, baseChunks, maxChunks int) (*Buf, error) {
	if maxChunks < baseChunks {
		maxChunks = baseChunks
	}
	return build(space, owner, chunkSize, baseChunks, maxChunks)
}

func build(space *shm.Space, owner string, chunkSize, baseChunks, maxChunks int) (*Buf, error) {
	pool, err := space.NewPool(owner, chunkSize, baseChunks)
	if err != nil {
		return nil, fmt.Errorf("sockbuf: %w", err)
	}
	elastic := maxChunks > baseChunks
	segs := 1
	if elastic {
		segs = (maxChunks + baseChunks - 1) / baseChunks
		pool.SetElastic(shm.Elastic{MaxSegments: segs})
	}
	// Ring capacity must be a power of two covering every chunk the pool
	// can ever hold, so Recycle never has to drop.
	cap := 2
	for cap < segs*baseChunks {
		cap *= 2
	}
	ring, err := spsc.New[shm.RichPtr](cap)
	if err != nil {
		return nil, fmt.Errorf("sockbuf: %w", err)
	}
	b := &Buf{pool: pool, supply: ring, elastic: elastic}
	for i := 0; i < baseChunks; i++ {
		ptr, _, err := pool.Alloc()
		if err != nil {
			return nil, fmt.Errorf("sockbuf: prefill: %w", err)
		}
		ring.TryEnqueue(ptr)
	}
	return b, nil
}

// Pool returns the backing pool (the transport frees/recycles through it).
func (b *Buf) Pool() *shm.Pool { return b.pool }

// ChunkSize returns the chunk size in bytes.
func (b *Buf) ChunkSize() int { return b.pool.ChunkSize() }

// Get pops a free chunk; app side only. An elastic buffer that outran its
// ring grows the backing pool on demand. ok=false means the buffer is
// exhausted (elastic: at its hard cap) and the caller should back off —
// the EWOULDBLOCK-style flow-control signal, never an error. The app may
// then wait for the writable edge: the starved flag raised here makes the
// transport's next recycle announce it.
func (b *Buf) Get() (shm.RichPtr, bool) {
	if ptr, ok := b.get(); ok {
		return ptr, true
	}
	b.starved.Store(true)
	return b.get()
}

// get is one look at the ring and, for an elastic buffer, the pool.
func (b *Buf) get() (shm.RichPtr, bool) {
	if ptr, ok := b.supply.TryDequeue(); ok {
		return ptr, true
	}
	if !b.elastic {
		return shm.RichPtr{}, false
	}
	ptr, _, err := b.pool.Alloc()
	if err != nil {
		return shm.RichPtr{}, false // hard cap reached: back-pressure
	}
	return ptr, true
}

// Write fills a previously Got chunk with data and returns a rich pointer
// to exactly the written range. App side only.
func (b *Buf) Write(ptr shm.RichPtr, data []byte) (shm.RichPtr, error) {
	view, err := b.pool.OwnerView(ptr)
	if err != nil {
		return shm.RichPtr{}, fmt.Errorf("sockbuf: %w", err)
	}
	if len(data) > len(view) {
		return shm.RichPtr{}, fmt.Errorf("sockbuf: %d bytes exceed chunk size %d", len(data), len(view))
	}
	copy(view, data)
	return ptr.Slice(0, uint32(len(data))), nil
}

// Recycle returns a chunk to the supply ring; transport side only. The
// pointer may be a sub-slice of the chunk; the whole chunk is recycled,
// a chunk of a grown segment as much as one of the base.
func (b *Buf) Recycle(ptr shm.RichPtr) {
	full := shm.RichPtr{
		Pool: ptr.Pool,
		Gen:  ptr.Gen,
		Off:  ptr.Off - ptr.Off%uint32(b.pool.ChunkSize()),
		Len:  uint32(b.pool.ChunkSize()),
	}
	if !b.supply.TryEnqueue(full) {
		_ = b.pool.Free(full)
	}
}

// Destroy removes the backing pool from the shared space: called when the
// owning socket is destroyed so buffer memory does not outlive it.
// Outstanding rich pointers into the pool resolve to ErrNoSuchPool after.
func (b *Buf) Destroy(space *shm.Space) {
	space.Drop(b.pool.ID())
}

// TakeStarved reports, once, whether the app found the buffer exhausted
// since the last call; transport side only, after recycling. True means the
// app may be waiting and the transport owes it the writable edge.
func (b *Buf) TakeStarved() bool {
	return b.starved.Load() && b.starved.Swap(false)
}

// Free returns how many chunks are currently available to the app.
func (b *Buf) Free() int { return b.supply.Len() }
