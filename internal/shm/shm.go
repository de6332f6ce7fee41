// Package shm simulates the shared-memory pools of NewtOS fast-path
// channels (paper §IV).
//
// Pools carry the large data (packet payloads) that is too big for queue
// slots; queue messages reference pool data through rich pointers
// ({pool, generation, offset, length}). Pools follow the paper's FBufs-style
// discipline:
//
//   - pools are exported read-only: only the owning server may allocate and
//     free chunks; consumers get read-only views and must copy-on-write,
//   - many processes can attach the same pool, so chains of rich pointers
//     travel zero-copy down the stack,
//   - when the owner crashes, the pool generation is bumped: stale rich
//     pointers held by survivors resolve to ErrStale instead of garbage.
//
// Pools are segmented and elastic: a pool is an ordered set of fixed-size
// segments behind one PoolID. Grow appends a segment (new shared mapping,
// same generation — outstanding rich pointers stay valid), Shrink retires
// fully-free trailing segments (pointers into a retired segment resolve to
// ErrOutOfRange, never garbage), and an optional Elastic policy drives both
// automatically: Alloc grows on demand under pressure, and Tick retires a
// trailing segment that has stayed free for a quiescence window of time,
// returning the instant of the next retirement for the owner's deadline.
// Offsets are global across segments, so the rich-pointer format and every
// consumer-side rule are unchanged by growth.
//
// A Space plays the role of the paper's virtual memory manager: the trusted
// third party through which pools are exported and attached.
package shm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Exported errors, matchable with errors.Is.
var (
	// ErrStale means a rich pointer refers to an old incarnation of a pool
	// (its owner crashed and the pool was reset since the pointer was made).
	ErrStale = errors.New("shm: stale rich pointer (pool generation changed)")
	// ErrNoSuchPool means the pool ID is not known to the space.
	ErrNoSuchPool = errors.New("shm: no such pool")
	// ErrOutOfRange means a rich pointer points outside the pool (including
	// into a segment that has since been retired by Shrink).
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

// RichPtr describes data living in a shared pool: which pool, which
// incarnation of that pool, and where inside it. Rich pointers are what
// channel messages carry instead of the data itself (paper §IV "Pools").
type RichPtr struct {
	Pool PoolID
	Gen  uint32
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
	return RichPtr{Pool: p.Pool, Gen: p.Gen, Off: p.Off + from, Len: to - from}
}

func (p RichPtr) String() string {
	return fmt.Sprintf("ptr{pool=%d gen=%d off=%d len=%d}", p.Pool, p.Gen, p.Off, p.Len)
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
	p.gen.Store(1)
	p.live.Store(1)
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

// Elastic is a pool's growth/shrink policy. The zero value disables
// elasticity entirely: the pool keeps its base segment forever and Alloc
// fails with ErrPoolFull when it empties, exactly the static behavior.
type Elastic struct {
	// MaxSegments caps the pool at this many segments in total (including
	// the base segment). <= 1 disables automatic growth.
	MaxSegments int
}

// Enabled reports whether the policy allows automatic growth.
func (e Elastic) Enabled() bool { return e.MaxSegments > 1 }

const (
	// highWater guards shrinking: a trailing segment is only retired when,
	// after retiring it, the remaining pool would still be at least half
	// free, so a pool running near its working set never thrashes
	// grow/shrink.
	highWater = 0.5
	// quiescence is how long a trailing segment must stay fully free, with
	// the pool above the high watermark, before it retires. Bursts that
	// come back within it find their segment still there instead of paying
	// a grow per burst; a pool that has gone quiet gives a segment back
	// half a second later, however busy or idle its owner's loop is.
	quiescence = 500 * time.Millisecond
)

// PoolObserver receives elasticity events; trace.PoolCounters implements
// it. Methods are called with the pool's owner lock held and must not call
// back into the pool.
type PoolObserver interface {
	// PoolGrew reports a segment was appended; segments is the new count.
	PoolGrew(segments int)
	// PoolShrank reports trailing segments were retired; segments is the
	// new count.
	PoolShrank(segments int)
	// PoolPressure reports an Alloc that failed hard (pool full and at the
	// growth cap).
	PoolPressure()
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

// Pool is a chunk allocator backed by an ordered set of fixed-size
// segments. Alloc, Free, Grow, Shrink, Tick and Reset are owner-side
// operations (they serialize on an internal lock, so an application-side
// helper like sockbuf may share them with the owning server); View may be
// called by anyone who attached the pool and is lock-free.
type Pool struct {
	id        PoolID
	owner     string
	chunkSize int
	// segChunks is the fixed chunk complement of every segment.
	segChunks int
	gen       atomic.Uint32

	// segs is the copy-on-write segment list: View loads it without
	// locking; owner-side operations replace it under mu. The list is
	// append-only within a generation: Shrink tombstones an entry to nil
	// (releasing its memory) but never truncates, so a retired segment's
	// offset range is never reused by a later Grow — a stale rich pointer
	// into it keeps resolving ErrOutOfRange instead of aliasing fresh
	// data. Reset (generation bump) is the only thing that compacts.
	segs atomic.Pointer[[]*segment]

	// live is the number of live segments, so Tick on a pool at its base
	// segment is one load.
	live atomic.Int32

	mu       sync.Mutex
	elastic  Elastic
	observer PoolObserver
	// quietSince is when Tick first found the trailing segment eligible
	// to retire, zero while it is not.
	quietSince time.Time

	allocs   atomic.Uint64
	frees    atomic.Uint64
	grows    atomic.Uint64
	shrinks  atomic.Uint64
	pressure atomic.Uint64
}

// ID returns the pool's identifier.
func (p *Pool) ID() PoolID { return p.id }

// Gen returns the current generation.
func (p *Pool) Gen() uint32 { return p.gen.Load() }

// ChunkSize returns the size of each chunk in bytes.
func (p *Pool) ChunkSize() int { return p.chunkSize }

// SegChunks returns the chunk complement of one segment.
func (p *Pool) SegChunks() int { return p.segChunks }

// Segments returns the current live (non-retired) segment count.
func (p *Pool) Segments() int { return int(p.live.Load()) }

// Chunks returns the total number of chunks across all live segments.
func (p *Pool) Chunks() int { return p.Segments() * p.segChunks }

// segBytes returns one segment's span in the pool's global offset space.
func (p *Pool) segBytes() int { return p.segChunks * p.chunkSize }

// SetElastic installs the growth/shrink policy. Safe to call before the
// pool is shared; changing policy on a live pool is owner-side.
func (p *Pool) SetElastic(e Elastic) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.elastic = e
}

// SetObserver installs the elasticity event sink (e.g. a
// trace.PoolCounters).
func (p *Pool) SetObserver(o PoolObserver) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observer = o
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
		if seg != nil {
			free += len(seg.free)
		}
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

// ElasticStats returns cumulative elasticity counters: segments appended,
// segments retired, and hard allocation failures (pool full at the cap).
func (p *Pool) ElasticStats() (grows, shrinks, pressure uint64) {
	return p.grows.Load(), p.shrinks.Load(), p.pressure.Load()
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
	// pool, letting trailing segments drain fully free and retire.
	for si, seg := range segs {
		if seg != nil && len(seg.free) > 0 {
			ptr, view := p.allocFrom(si, seg)
			return ptr, view, nil
		}
	}
	if p.elastic.Enabled() && p.Segments() < p.elastic.MaxSegments {
		if seg := p.growLocked(); seg != nil {
			ptr, view := p.allocFrom(len(*p.segs.Load())-1, seg)
			return ptr, view, nil
		}
	}
	p.pressure.Add(1)
	if p.observer != nil {
		p.observer.PoolPressure()
	}
	return RichPtr{}, nil, ErrPoolFull
}

// allocFrom pops one chunk off segment si. Caller holds mu and guarantees
// the segment has a free chunk. A chunk taken from the trailing segment
// restarts its quiescence window.
func (p *Pool) allocFrom(si int, seg *segment) (RichPtr, []byte) {
	if si > 0 && si == p.trailingLocked() {
		p.quietSince = time.Time{}
	}
	li := seg.free[len(seg.free)-1]
	seg.free = seg.free[:len(seg.free)-1]
	seg.state[li] = 1
	p.allocs.Add(1)
	global := uint32(si*p.segChunks) + li
	ptr := RichPtr{
		Pool: p.id,
		Gen:  p.gen.Load(),
		Off:  global * uint32(p.chunkSize),
		Len:  uint32(p.chunkSize),
	}
	lo := int(li) * p.chunkSize
	hi := lo + p.chunkSize
	return ptr, seg.data[lo:hi:hi]
}

// Free releases the chunk that ptr points into. Owner-side. ptr may be any
// sub-slice of the chunk; the whole chunk is released. A pointer into a
// segment retired by Shrink resolves to ErrOutOfRange.
func (p *Pool) Free(ptr RichPtr) error {
	if ptr.Pool != p.id {
		return fmt.Errorf("%w: ptr pool %d, this pool %d", ErrNoSuchPool, ptr.Pool, p.id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ptr.Gen != p.gen.Load() {
		return ErrStale
	}
	segs := *p.segs.Load()
	gi := int(ptr.Off) / p.chunkSize
	si, li := gi/p.segChunks, gi%p.segChunks
	if gi < 0 || si >= len(segs) || segs[si] == nil {
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

// View resolves ptr into this pool, validating generation and bounds.
// The returned slice must be treated as read-only by non-owners. View is
// lock-free: it may run concurrently with owner-side Grow and Shrink.
func (p *Pool) View(ptr RichPtr) ([]byte, error) {
	if ptr.Pool != p.id {
		return nil, fmt.Errorf("%w: ptr pool %d, this pool %d", ErrNoSuchPool, ptr.Pool, p.id)
	}
	if ptr.Gen != p.gen.Load() {
		return nil, ErrStale
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
	if segs[si] == nil {
		// Retired segment: its offset range is never reused, so a stale
		// pointer resolves here — an error, never another chunk's data.
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
		return fmt.Errorf("%w: offset space exhausted this generation", ErrPoolFull)
	}
	return nil
}

func (p *Pool) growLocked() *segment {
	segs := *p.segs.Load()
	// Always append at a fresh index — retired (nil) slots keep their
	// offset range dead so stale pointers never alias the new segment.
	// Each retired slot therefore permanently consumes segBytes of the
	// pool's 32-bit offset space for the rest of the generation; refuse
	// to grow past it (the pool degrades to static, pressure counted)
	// rather than let offsets wrap back into live segments.
	if (uint64(len(segs))+1)*uint64(p.segBytes()) > 1<<32 {
		return nil
	}
	seg := newSegment(p.chunkSize, p.segChunks)
	ns := make([]*segment, len(segs)+1)
	copy(ns, segs)
	ns[len(segs)] = seg
	p.segs.Store(&ns)
	p.live.Add(1)
	p.grows.Add(1)
	if p.observer != nil {
		p.observer.PoolGrew(p.Segments())
	}
	return seg
}

// Shrink retires every fully-free trailing segment (never the base
// segment) immediately, returning how many were retired. A retired
// segment's memory is released but its offset range stays dead for the
// rest of the generation: rich pointers into it resolve to ErrOutOfRange —
// even after later growth — while pointers into surviving segments stay
// valid (no generation bump).
func (p *Pool) Shrink() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shrinkLocked(len(*p.segs.Load()))
}

func (p *Pool) shrinkLocked(max int) int {
	segs := *p.segs.Load()
	retired := 0
	var ns []*segment
	// Walk live segments from the end; tombstone fully-free ones until
	// the first busy (or the base) segment.
	for i := len(segs) - 1; i > 0 && retired < max; i-- {
		if segs[i] == nil {
			continue
		}
		if len(segs[i].free) != p.segChunks || !p.anyLiveBelowLocked(segs, i) {
			break
		}
		if ns == nil {
			ns = make([]*segment, len(segs))
			copy(ns, segs)
		}
		ns[i] = nil
		retired++
	}
	if retired == 0 {
		return 0
	}
	p.segs.Store(&ns)
	p.live.Add(-int32(retired))
	p.shrinks.Add(uint64(retired))
	if p.observer != nil {
		p.observer.PoolShrank(p.Segments())
	}
	return retired
}

// anyLiveBelowLocked reports whether a live segment exists below index i
// (retiring i must never leave the pool without its base complement).
func (p *Pool) anyLiveBelowLocked(segs []*segment, i int) bool {
	for j := 0; j < i; j++ {
		if segs[j] != nil {
			return true
		}
	}
	return false
}

// trailingLocked returns the index of the highest live segment.
func (p *Pool) trailingLocked() int {
	segs := *p.segs.Load()
	i := len(segs) - 1
	for i > 0 && segs[i] == nil {
		i--
	}
	return i
}

// retirableLocked reports whether the trailing segment may retire: it is
// not the base, it is fully free, and the pool stays above the high
// watermark without it.
func (p *Pool) retirableLocked() bool {
	t := p.trailingLocked()
	if t == 0 || len((*p.segs.Load())[t].free) != p.segChunks {
		return false
	}
	total := p.Segments() * p.segChunks
	return float64(p.freeLocked()-p.segChunks) >= highWater*float64(total-p.segChunks)
}

// Tick runs the elastic policy's shrink half at now and returns the
// instant of the next retirement, zero when none is pending: the owner
// folds it into its deadline and calls Tick again from the loop, at the
// latest at that instant. Tick stamps when the trailing segment became
// eligible to retire and retires it once it has stayed eligible for the
// quiescence window, one segment per window (growth is Alloc's, on
// demand). A pool at its base segment returns at once.
func (p *Pool) Tick(now time.Time) time.Time {
	if p.live.Load() <= 1 {
		return time.Time{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.elastic.Enabled() || !p.retirableLocked() {
		p.quietSince = time.Time{}
		return time.Time{}
	}
	if p.quietSince.IsZero() {
		p.quietSince = now
	}
	if at := p.quietSince.Add(quiescence); now.Before(at) {
		return at
	}
	p.shrinkLocked(1)
	p.quietSince = time.Time{}
	if p.retirableLocked() {
		p.quietSince = now
		return now.Add(quiescence)
	}
	return time.Time{}
}

// Reset simulates the owner crashing and the pool being re-created in the
// new incarnation's (inherited) address space: the pool returns to its base
// geometry (one segment, all chunks free) and the generation is bumped so
// every outstanding rich pointer — including those into grown segments —
// turns stale. The generation bump is what makes compacting the segment
// list (reusing retired offset ranges) safe here.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen.Add(1)
	segs := *p.segs.Load()
	base := segs[0]
	for i := range base.state {
		base.state[i] = 0
	}
	base.free = base.free[:0]
	for i := p.segChunks - 1; i >= 0; i-- {
		base.free = append(base.free, uint32(i))
	}
	if len(segs) > 1 {
		ns := []*segment{base}
		p.segs.Store(&ns)
	}
	p.live.Store(1)
	p.quietSince = time.Time{}
}
