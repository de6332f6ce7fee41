// Package shm simulates the shared-memory pools of NewtOS fast-path
// channels (paper §IV).
//
// Pools carry the large data (packet payloads) that is too big for queue
// slots; queue messages reference pool data through rich pointers
// ({pool, offset, length}). Pools follow the paper's FBufs-style
// discipline:
//
//   - pools are exported read-only: only the owning server may allocate and
//     free chunks; consumers get read-only views and must copy-on-write,
//   - many processes can attach the same pool, so chains of rich pointers
//     travel zero-copy down the stack,
//   - a crashed owner's successor creates new pools under new IDs; the old
//     ones stay resolvable, so survivors holding pointers into them still
//     read the data they were sent.
//
// Pools are segmented and grow only: a pool is an ordered list of
// fixed-size segments behind one PoolID. Grow appends a segment (a new
// shared mapping; outstanding rich pointers stay valid), and an optional
// Elastic policy makes Alloc grow on demand up to a cap. A pool keeps every
// segment until it is dropped from its Space. Offsets are global across
// segments, so the rich-pointer format and every consumer-side rule are
// unchanged by growth.
//
// A Space plays the role of the paper's virtual memory manager: the trusted
// third party through which pools are exported and attached.
package shm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Exported errors, matchable with errors.Is.
var (
	// ErrNoSuchPool means the pool ID is not known to the space.
	ErrNoSuchPool = errors.New("shm: no such pool")
	// ErrOutOfRange means a rich pointer points outside the pool.
	ErrOutOfRange = errors.New("shm: rich pointer out of range")
	// ErrPoolFull means the pool has no free chunks (and, for elastic
	// pools, growth has reached the segment cap).
	ErrPoolFull = errors.New("shm: pool full")
	// ErrNotChunkStart means a free was attempted on a pointer that does not
	// reference the start of an allocated chunk.
	ErrNotChunkStart = errors.New("shm: pointer is not an allocated chunk")
	// ErrReadOnly means a mutating operation was attempted by a non-owner.
	ErrReadOnly = errors.New("shm: pool is exported read-only")
)

// PoolID identifies a pool within a Space.
type PoolID uint32

// RichPtr describes data living in a shared pool: which pool and where
// inside it. Rich pointers are what channel messages carry instead of the
// data itself (paper §IV "Pools").
type RichPtr struct {
	Pool PoolID
	Off  uint32
	Len  uint32
}

// IsZero reports whether p is the zero pointer (no data).
func (p RichPtr) IsZero() bool { return p == RichPtr{} }

// Slice returns a pointer to a sub-range [from, to) of p's data.
func (p RichPtr) Slice(from, to uint32) RichPtr {
	if from > to || to > p.Len {
		panic(fmt.Sprintf("shm: bad slice [%d:%d) of ptr len %d", from, to, p.Len))
	}
	return RichPtr{Pool: p.Pool, Off: p.Off + from, Len: to - from}
}

func (p RichPtr) String() string {
	return fmt.Sprintf("ptr{pool=%d off=%d len=%d}", p.Pool, p.Off, p.Len)
}

// Space is the set of pools visible on one simulated machine. It stands in
// for the virtual memory manager: the trusted component that sets up shared
// mappings so that "once a shared memory region between two processes is set
// up, the source is known".
type Space struct {
	mu    sync.RWMutex
	pools map[PoolID]*Pool
	next  uint32
}

// NewSpace returns an empty space.
func NewSpace() *Space {
	return &Space{pools: make(map[PoolID]*Pool)}
}

// NewPool creates a pool of one base segment holding nChunks chunks of
// chunkSize bytes each, owned by owner (an opaque name used for diagnostics
// and write protection). nChunks is also the segment size: every segment a
// later Grow appends holds the same complement.
func (s *Space) NewPool(owner string, chunkSize, nChunks int) (*Pool, error) {
	if chunkSize <= 0 || nChunks <= 0 {
		return nil, fmt.Errorf("shm: invalid pool geometry %dx%d", nChunks, chunkSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	p := &Pool{
		id:        PoolID(s.next),
		owner:     owner,
		chunkSize: chunkSize,
		segChunks: nChunks,
	}
	segs := []*segment{newSegment(chunkSize, nChunks)}
	p.segs.Store(&segs)
	s.pools[p.id] = p
	return p, nil
}

// Pool returns the pool with the given ID.
func (s *Space) Pool(id PoolID) (*Pool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pools[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchPool, id)
	}
	return p, nil
}

// View resolves a rich pointer to a read-only byte view. The returned slice
// aliases pool memory; callers must treat it as immutable (the paper's pools
// are mapped read-only into consumers).
func (s *Space) View(ptr RichPtr) ([]byte, error) {
	p, err := s.Pool(ptr.Pool)
	if err != nil {
		return nil, err
	}
	return p.View(ptr)
}

// Drop removes a pool from the space entirely (used at teardown).
func (s *Space) Drop(id PoolID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pools, id)
}

// Elastic is a pool's growth policy. The zero value disables it: the pool
// keeps its base segment alone and Alloc fails with ErrPoolFull when it
// empties, exactly the static behavior.
type Elastic struct {
	// MaxSegments caps the pool at this many segments in total (including
	// the base segment). <= 1 disables automatic growth.
	MaxSegments int
}

// segment is one fixed-size mapping of a pool: its own backing array, so
// growth never copies or remaps in-flight chunks, plus owner-side
// allocation metadata (local chunk indexes).
type segment struct {
	data []byte
	// state[i] is 0 when chunk i is free, 1 when allocated. Owner-written.
	state []uint32
	free  []uint32
}

func newSegment(chunkSize, nChunks int) *segment {
	s := &segment{
		data:  make([]byte, chunkSize*nChunks),
		state: make([]uint32, nChunks),
		free:  make([]uint32, 0, nChunks),
	}
	for i := nChunks - 1; i >= 0; i-- {
		s.free = append(s.free, uint32(i))
	}
	return s
}

// Pool is a chunk allocator backed by an ordered list of fixed-size
// segments. Alloc, Free and Grow are owner-side operations (they serialize
// on an internal lock, so an application-side helper like sockbuf may share
// them with the owning server); View may be called by anyone who attached
// the pool and is lock-free.
type Pool struct {
	id        PoolID
	owner     string
	chunkSize int
	// segChunks is the fixed chunk complement of every segment.
	segChunks int

	// segs is the copy-on-write segment list: View loads it without
	// locking; Grow replaces it under mu with one entry more.
	segs atomic.Pointer[[]*segment]

	mu      sync.Mutex
	elastic Elastic

	allocs   atomic.Uint64
	frees    atomic.Uint64
	grows    atomic.Uint64
	pressure atomic.Uint64
}

// ID returns the pool's identifier.
func (p *Pool) ID() PoolID { return p.id }

// ChunkSize returns the size of each chunk in bytes.
func (p *Pool) ChunkSize() int { return p.chunkSize }

// Segments returns the current segment count.
func (p *Pool) Segments() int { return len(*p.segs.Load()) }

// Chunks returns the total number of chunks across all segments.
func (p *Pool) Chunks() int { return p.Segments() * p.segChunks }

// segBytes returns one segment's span in the pool's global offset space.
func (p *Pool) segBytes() int { return p.segChunks * p.chunkSize }

// SetElastic installs the growth policy. Safe to call before the
// pool is shared; changing policy on a live pool is owner-side.
func (p *Pool) SetElastic(e Elastic) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.elastic = e
}

// FreeChunks returns the number of currently free chunks.
func (p *Pool) FreeChunks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freeLocked()
}

func (p *Pool) freeLocked() int {
	free := 0
	for _, seg := range *p.segs.Load() {
		free += len(seg.free)
	}
	return free
}

// InUse returns the number of allocated chunks (owner-side accounting).
func (p *Pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Segments()*p.segChunks - p.freeLocked()
}

// Stats returns cumulative allocation and free counts.
func (p *Pool) Stats() (allocs, frees uint64) {
	return p.allocs.Load(), p.frees.Load()
}

// ElasticStats returns cumulative elasticity counters: segments appended
// and hard allocation failures (pool full at the cap).
func (p *Pool) ElasticStats() (grows, pressure uint64) {
	return p.grows.Load(), p.pressure.Load()
}

// Alloc reserves one chunk and returns a rich pointer covering all of it
// plus a writable view for the owner to fill. When the pool is dry and the
// elastic policy allows it, a segment is appended transparently; ErrPoolFull
// is returned only at the hard cap (or for non-elastic pools).
func (p *Pool) Alloc() (RichPtr, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	segs := *p.segs.Load()
	// Lowest segment first: occupancy concentrates at the front of the
	// pool, so a grown segment sees use only while the ones below are full.
	for si, seg := range segs {
		if len(seg.free) > 0 {
			ptr, view := p.allocFrom(si, seg)
			return ptr, view, nil
		}
	}
	if p.Segments() < p.elastic.MaxSegments {
		if seg := p.growLocked(); seg != nil {
			ptr, view := p.allocFrom(len(*p.segs.Load())-1, seg)
			return ptr, view, nil
		}
	}
	p.pressure.Add(1)
	return RichPtr{}, nil, ErrPoolFull
}

// allocFrom pops one chunk off segment si. Caller holds mu and guarantees
// the segment has a free chunk.
func (p *Pool) allocFrom(si int, seg *segment) (RichPtr, []byte) {
	li := seg.free[len(seg.free)-1]
	seg.free = seg.free[:len(seg.free)-1]
	seg.state[li] = 1
	p.allocs.Add(1)
	global := uint32(si*p.segChunks) + li
	ptr := RichPtr{
		Pool: p.id,
		Off:  global * uint32(p.chunkSize),
		Len:  uint32(p.chunkSize),
	}
	lo := int(li) * p.chunkSize
	hi := lo + p.chunkSize
	return ptr, seg.data[lo:hi:hi]
}

// Free releases the chunk that ptr points into. Owner-side. ptr may be any
// sub-slice of the chunk; the whole chunk is released.
func (p *Pool) Free(ptr RichPtr) error {
	if ptr.Pool != p.id {
		return fmt.Errorf("%w: ptr pool %d, this pool %d", ErrNoSuchPool, ptr.Pool, p.id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	segs := *p.segs.Load()
	gi := int(ptr.Off) / p.chunkSize
	si, li := gi/p.segChunks, gi%p.segChunks
	if si >= len(segs) {
		return ErrOutOfRange
	}
	seg := segs[si]
	if seg.state[li] == 0 {
		return fmt.Errorf("%w: chunk %d already free", ErrNotChunkStart, gi)
	}
	seg.state[li] = 0
	seg.free = append(seg.free, uint32(li))
	p.frees.Add(1)
	return nil
}

// View resolves ptr into this pool, validating its bounds. The returned
// slice must be treated as read-only by non-owners. View is lock-free: it
// may run concurrently with owner-side Grow.
func (p *Pool) View(ptr RichPtr) ([]byte, error) {
	if ptr.Pool != p.id {
		return nil, fmt.Errorf("%w: ptr pool %d, this pool %d", ErrNoSuchPool, ptr.Pool, p.id)
	}
	if ptr.Len == 0 {
		return nil, nil
	}
	segs := *p.segs.Load()
	sb := uint64(p.segBytes())
	end := uint64(ptr.Off) + uint64(ptr.Len)
	if end > sb*uint64(len(segs)) {
		return nil, ErrOutOfRange
	}
	si := uint64(ptr.Off) / sb
	if (end-1)/sb != si {
		// Chunks never span segments; a range that does is forged.
		return nil, ErrOutOfRange
	}
	lo := uint64(ptr.Off) - si*sb
	hi := lo + uint64(ptr.Len)
	return segs[si].data[lo:hi:hi], nil
}

// OwnerView is like View but documents intent: the owner may write through
// the returned slice (e.g., the driver filling an RX buffer it was supplied).
func (p *Pool) OwnerView(ptr RichPtr) ([]byte, error) {
	return p.View(ptr)
}

// Grow appends one segment of the base segment's chunk complement. All
// outstanding rich pointers remain valid: offsets are global and existing
// segments are untouched. Fails with ErrPoolFull at the elastic policy's
// segment cap (a pool with no policy may grow without bound).
func (p *Pool) Grow() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if max := p.elastic.MaxSegments; max > 0 && p.Segments() >= max {
		return fmt.Errorf("%w: at segment cap %d", ErrPoolFull, max)
	}
	if p.growLocked() == nil {
		return fmt.Errorf("%w: offset space exhausted", ErrPoolFull)
	}
	return nil
}

func (p *Pool) growLocked() *segment {
	segs := *p.segs.Load()
	// Offsets are 32-bit: refuse to grow past them (the pool then behaves
	// as a static one, pressure counted) rather than let offsets wrap.
	if (uint64(len(segs))+1)*uint64(p.segBytes()) > 1<<32 {
		return nil
	}
	seg := newSegment(p.chunkSize, p.segChunks)
	ns := make([]*segment, len(segs)+1)
	copy(ns, segs)
	ns[len(segs)] = seg
	p.segs.Store(&ns)
	p.grows.Add(1)
	return seg
}
