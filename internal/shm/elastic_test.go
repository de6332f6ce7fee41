package shm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// countingObserver records elasticity events (a test stand-in for
// trace.PoolCounters).
type countingObserver struct {
	grew, shrank, pressure int
	segments               int
}

func (o *countingObserver) PoolGrew(segments int)   { o.grew++; o.segments = segments }
func (o *countingObserver) PoolShrank(segments int) { o.shrank++; o.segments = segments }
func (o *countingObserver) PoolPressure()           { o.pressure++ }

func TestGrowPreservesOutstandingPointers(t *testing.T) {
	s, p := newTestPool(t, 64, 4)
	ptr, buf, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xab
	if err := p.Grow(); err != nil {
		t.Fatal(err)
	}
	if p.Segments() != 2 || p.Chunks() != 8 {
		t.Fatalf("segments=%d chunks=%d after grow", p.Segments(), p.Chunks())
	}
	// The pre-growth pointer still resolves to the same byte, same gen.
	v, err := s.View(ptr)
	if err != nil || v[0] != 0xab {
		t.Fatalf("view after grow: %v, %v", v, err)
	}
	if ptr.Gen != p.Gen() {
		t.Fatal("growth bumped the generation")
	}
	// Fill the base segment; the next alloc must land in segment 2's
	// offset range.
	for i := 0; i < 3; i++ {
		if _, _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	p2, buf2, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Off < 4*64 {
		t.Fatalf("alloc after base full landed at off %d, want >= %d", p2.Off, 4*64)
	}
	buf2[0] = 0xcd
	if v, err := s.View(p2); err != nil || v[0] != 0xcd {
		t.Fatalf("grown-segment view: %v, %v", v, err)
	}
}

func TestShrinkRetiresTrailingAndPointersGoOutOfRange(t *testing.T) {
	s, p := newTestPool(t, 64, 2)
	if err := p.Grow(); err != nil {
		t.Fatal(err)
	}
	// Allocate one chunk in the base and one in the grown segment.
	basePtr, _, _ := p.Alloc()
	var grownPtr RichPtr
	for {
		ptr, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if ptr.Off >= 2*64 {
			grownPtr = ptr
			break
		}
	}
	// The trailing segment is in use: Shrink must refuse.
	if n := p.Shrink(); n != 0 {
		t.Fatalf("shrank %d segments with live trailing chunk", n)
	}
	if err := p.Free(grownPtr); err != nil {
		t.Fatal(err)
	}
	if n := p.Shrink(); n != 1 {
		t.Fatalf("Shrink = %d, want 1", n)
	}
	if p.Segments() != 1 {
		t.Fatalf("segments = %d", p.Segments())
	}
	// Pointers into the retired segment resolve to ErrOutOfRange — not
	// stale (the generation did not change), and never garbage.
	if _, err := s.View(grownPtr); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("view into retired segment: %v", err)
	}
	if err := p.Free(grownPtr); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("free into retired segment: %v", err)
	}
	// Base-segment pointers are untouched.
	if _, err := s.View(basePtr); err != nil {
		t.Fatalf("base view after shrink: %v", err)
	}
	// The base segment never retires.
	if n := p.Shrink(); n != 0 {
		t.Fatal("base segment retired")
	}
}

// TestRetiredOffsetsNeverReused is the aliasing regression: a stale
// pointer into a retired segment must keep resolving ErrOutOfRange even
// after the pool grows again — the retired offset range stays dead for
// the rest of the generation, so the stale pointer can never read (or
// free) a fresh segment's chunks.
func TestRetiredOffsetsNeverReused(t *testing.T) {
	s, p := newTestPool(t, 64, 2)
	if err := p.Grow(); err != nil {
		t.Fatal(err)
	}
	// Take a pointer in the grown segment, free it, retire the segment.
	var stale RichPtr
	var live []RichPtr
	for {
		ptr, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if ptr.Off >= 2*64 {
			stale = ptr
			break
		}
		live = append(live, ptr)
	}
	if err := p.Free(stale); err != nil {
		t.Fatal(err)
	}
	if n := p.Shrink(); n != 1 {
		t.Fatalf("Shrink = %d", n)
	}
	// Grow again and fill the new segment.
	if err := p.Grow(); err != nil {
		t.Fatal(err)
	}
	if p.Segments() != 2 {
		t.Fatalf("live segments = %d", p.Segments())
	}
	fresh := make(map[uint32]bool)
	for {
		ptr, buf, err := p.Alloc()
		if err != nil {
			break
		}
		buf[0] = 0x5a
		fresh[ptr.Off] = true
	}
	// The new segment's chunks live at fresh offsets, not the retired ones.
	if fresh[stale.Off] {
		t.Fatalf("regrown segment reused retired offset %d", stale.Off)
	}
	// The stale pointer still resolves to an error, not the new data, and
	// cannot free anyone else's chunk.
	if _, err := s.View(stale); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("stale view after regrow: %v", err)
	}
	if err := p.Free(stale); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("stale free after regrow: %v", err)
	}
	// Pre-shrink base pointers still resolve.
	for _, ptr := range live {
		if _, err := s.View(ptr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGrowThenCrashBumpsGenerationForAllSegments(t *testing.T) {
	s, p := newTestPool(t, 64, 2)
	basePtr, _, _ := p.Alloc()
	if err := p.Grow(); err != nil {
		t.Fatal(err)
	}
	p.Free(basePtr)
	var grownPtr RichPtr
	for {
		ptr, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if ptr.Off >= 2*64 {
			grownPtr = ptr
			break
		}
	}
	p.Reset()
	// Every outstanding pointer — base and grown segment alike — is stale.
	for _, ptr := range []RichPtr{basePtr, grownPtr} {
		if _, err := s.View(ptr); !errors.Is(err, ErrStale) {
			t.Fatalf("view of %v after reset: %v", ptr, err)
		}
		if err := p.Free(ptr); !errors.Is(err, ErrStale) {
			t.Fatalf("free of %v after reset: %v", ptr, err)
		}
	}
	// Reset re-creates the pool at base geometry, fully free.
	if p.Segments() != 1 {
		t.Fatalf("segments after reset = %d", p.Segments())
	}
	if p.FreeChunks() != 2 {
		t.Fatalf("free after reset = %d", p.FreeChunks())
	}
}

func TestElasticAllocGrowsOnDemandUpToCap(t *testing.T) {
	_, p := newTestPool(t, 32, 4)
	obs := &countingObserver{}
	p.SetObserver(obs)
	p.SetElastic(Elastic{MaxSegments: 3})
	// 12 allocations fit (3 segments × 4 chunks), growing twice on demand.
	for i := 0; i < 12; i++ {
		if _, _, err := p.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if p.Segments() != 3 || obs.grew != 2 {
		t.Fatalf("segments=%d grew=%d", p.Segments(), obs.grew)
	}
	// The 13th fails hard: the cap is the new ErrPoolFull boundary.
	if _, _, err := p.Alloc(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("alloc at cap: %v", err)
	}
	if obs.pressure != 1 {
		t.Fatalf("pressure events = %d", obs.pressure)
	}
	if g, _, pr := p.ElasticStats(); g != 2 || pr != 1 {
		t.Fatalf("ElasticStats grows=%d pressure=%d", g, pr)
	}
	if err := p.Grow(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("manual grow past cap: %v", err)
	}
}

// TestTickQuiescenceShrinksBackToBase: quiescence is time, read from the
// now the owner passes. A loaded pool never shrinks; a drained one retires
// one trailing segment per window, each Tick naming the instant of the
// next retirement, until only the base remains.
func TestTickQuiescenceShrinksBackToBase(t *testing.T) {
	_, p := newTestPool(t, 32, 4)
	p.SetElastic(Elastic{MaxSegments: 4})
	ptrs := make([]RichPtr, 0, 16)
	for i := 0; i < 16; i++ {
		ptr, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	if p.Segments() != 4 {
		t.Fatalf("segments = %d", p.Segments())
	}
	now := time.Unix(1000, 0)
	// Still fully loaded: ticking must not shrink, and nothing is due.
	for i := 0; i < 10; i++ {
		now = now.Add(quiescence)
		if due := p.Tick(now); !due.IsZero() {
			t.Fatalf("a loaded pool named a retirement at %v", due)
		}
	}
	if p.Segments() != 4 {
		t.Fatalf("shrank under full load to %d segments", p.Segments())
	}
	for _, ptr := range ptrs {
		if err := p.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	// The first Tick after the drain stamps the window and names its end.
	due := p.Tick(now)
	if want := now.Add(quiescence); !due.Equal(want) {
		t.Fatalf("Tick = %v, want %v", due, want)
	}
	for segs := 3; segs >= 1; segs-- {
		if p.Tick(due.Add(-time.Nanosecond)); p.Segments() != segs+1 {
			t.Fatalf("a segment retired before its window ended: %d segments", p.Segments())
		}
		now = due
		due = p.Tick(now)
		if p.Segments() != segs {
			t.Fatalf("segments at the end of a window = %d, want %d", p.Segments(), segs)
		}
		if segs > 1 && !due.Equal(now.Add(quiescence)) {
			t.Fatalf("next retirement at %v, want one window on", due)
		}
	}
	if !due.IsZero() {
		t.Fatalf("a pool back at its base named a retirement at %v", due)
	}
	if _, sh, _ := p.ElasticStats(); sh != 3 {
		t.Fatalf("shrinks = %d", sh)
	}
	// And it regrows on demand after shrinking.
	for i := 0; i < 5; i++ {
		if _, _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Segments() != 2 {
		t.Fatalf("segments after regrow = %d", p.Segments())
	}
}

// TestAllocRestartsTheQuiescenceWindow: a chunk taken from the trailing
// segment, even one given back before the next Tick, starts the window
// over.
func TestAllocRestartsTheQuiescenceWindow(t *testing.T) {
	_, p := newTestPool(t, 32, 4)
	p.SetElastic(Elastic{MaxSegments: 2})
	var ptrs []RichPtr
	for i := 0; i < 5; i++ {
		ptr, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		_ = p.Free(ptr)
	}
	now := time.Unix(1000, 0)
	first := p.Tick(now)
	// Fill the base, take one chunk of the trailing segment, give all back.
	ptrs = ptrs[:0]
	for i := 0; i < 5; i++ {
		ptr, _, _ := p.Alloc()
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		_ = p.Free(ptr)
	}
	later := now.Add(quiescence / 2)
	if due := p.Tick(later); !due.Equal(later.Add(quiescence)) {
		t.Fatalf("after an alloc into the trailing segment the window ends at %v, want %v (it first ended at %v)",
			due, later.Add(quiescence), first)
	}
	if p.Tick(first); p.Segments() != 2 {
		t.Fatal("the segment retired at the end of the window its alloc restarted")
	}
}

// TestTickAtBaseNamesNothing: a pool at its base segment has nothing to
// retire, so its owner's deadline gains nothing from it.
func TestTickAtBaseNamesNothing(t *testing.T) {
	_, p := newTestPool(t, 32, 4)
	p.SetElastic(Elastic{MaxSegments: 4})
	if due := p.Tick(time.Now()); !due.IsZero() {
		t.Fatalf("Tick at base = %v, want zero", due)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Tick(time.Time{}) }); allocs != 0 {
		t.Fatalf("Tick at base allocates %.1f times", allocs)
	}
}

// TestConcurrentAllocFreeDuringGrow exercises the race-cleanliness the
// elastic contract promises: Alloc/Free from the owner, Grow/Shrink from a
// policy goroutine, and lock-free Views from consumers, all concurrent.
// Run with -race.
func TestConcurrentAllocFreeDuringGrow(t *testing.T) {
	s, p := newTestPool(t, 64, 8)
	p.SetElastic(Elastic{MaxSegments: 8})
	stable, _, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // owner: alloc/free churn (grows on demand)
		defer wg.Done()
		live := make([]RichPtr, 0, 64)
		for i := 0; i < 20000; i++ {
			if i%3 != 0 || len(live) == 0 {
				if ptr, _, err := p.Alloc(); err == nil {
					live = append(live, ptr)
				}
			} else {
				ptr := live[len(live)-1]
				live = live[:len(live)-1]
				if err := p.Free(ptr); err != nil {
					panic(err)
				}
			}
			if len(live) == 56 { // near cap: drain
				for _, ptr := range live {
					if err := p.Free(ptr); err != nil {
						panic(err)
					}
				}
				live = live[:0]
			}
		}
	}()
	go func() { // policy: explicit grow/shrink/tick churn
		defer wg.Done()
		now := time.Unix(1000, 0)
		for i := 0; i < 20000; i++ {
			switch i % 5 {
			case 0:
				_ = p.Grow()
			case 1:
				p.Shrink()
			default:
				now = now.Add(quiescence / 2)
				p.Tick(now)
			}
		}
	}()
	go func() { // consumer: lock-free views during growth
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			if _, err := s.View(stable); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()
	// Conservation still holds.
	if p.InUse()+p.FreeChunks() != p.Chunks() {
		t.Fatalf("chunks leaked: inuse=%d free=%d total=%d", p.InUse(), p.FreeChunks(), p.Chunks())
	}
	if _, err := s.View(stable); err != nil {
		t.Fatal(err)
	}
}
