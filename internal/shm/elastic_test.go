package shm

import (
	"errors"
	"sync"
	"testing"
)

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
	// The pre-growth pointer still resolves to the same byte.
	v, err := s.View(ptr)
	if err != nil || v[0] != 0xab {
		t.Fatalf("view after grow: %v, %v", v, err)
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

func TestElasticAllocGrowsOnDemandUpToCap(t *testing.T) {
	_, p := newTestPool(t, 32, 4)
	p.SetElastic(Elastic{MaxSegments: 3})
	// 12 allocations fit (3 segments × 4 chunks), growing twice on demand.
	for i := 0; i < 12; i++ {
		if _, _, err := p.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if g, _ := p.ElasticStats(); p.Segments() != 3 || g != 2 {
		t.Fatalf("segments=%d grew=%d", p.Segments(), g)
	}
	// The 13th fails hard: the cap is the new ErrPoolFull boundary.
	if _, _, err := p.Alloc(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("alloc at cap: %v", err)
	}
	if g, pr := p.ElasticStats(); g != 2 || pr != 1 {
		t.Fatalf("ElasticStats grows=%d pressure=%d", g, pr)
	}
	if err := p.Grow(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("manual grow past cap: %v", err)
	}
}

// TestDrainedPoolKeepsItsSegments: a pool only grows. Drained, it keeps
// every segment, and the next burst refills them, lowest segment first,
// without growing again.
func TestDrainedPoolKeepsItsSegments(t *testing.T) {
	s, p := newTestPool(t, 32, 4)
	p.SetElastic(Elastic{MaxSegments: 4})
	ptrs := make([]RichPtr, 0, 16)
	for i := 0; i < 16; i++ {
		ptr, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	for _, ptr := range ptrs {
		if err := p.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if p.Segments() != 4 || p.FreeChunks() != 16 {
		t.Fatalf("drained pool: %d segments, %d free chunks; want 4, 16", p.Segments(), p.FreeChunks())
	}
	// A pointer freed long ago still resolves: its segment is still there.
	if _, err := s.View(ptrs[15]); err != nil {
		t.Fatalf("view into a drained grown segment: %v", err)
	}
	first, _, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if first.Off >= 4*32 {
		t.Fatalf("first alloc after the drain landed at off %d, want the base segment", first.Off)
	}
	for i := 1; i < 16; i++ {
		if _, _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if g, pr := p.ElasticStats(); g != 3 || pr != 0 {
		t.Fatalf("refill: grows=%d pressure=%d, want 3 and 0", g, pr)
	}
}

// TestConcurrentAllocFreeDuringGrow exercises the race-cleanliness the
// elastic contract promises: Alloc/Free from the owner, Grow from a policy
// goroutine, and lock-free Views from consumers, all concurrent.
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
	go func() { // policy: explicit grow churn, up to the cap
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			_ = p.Grow()
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
