package shm

import (
	"errors"
	"testing"
	"testing/quick"
)

func newTestPool(t *testing.T, chunkSize, n int) (*Space, *Pool) {
	t.Helper()
	s := NewSpace()
	p, err := s.NewPool("test", chunkSize, n)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestAllocFreeCycle(t *testing.T) {
	_, p := newTestPool(t, 128, 4)
	ptrs := make([]RichPtr, 0, 4)
	for i := 0; i < 4; i++ {
		ptr, buf, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if len(buf) != 128 {
			t.Fatalf("buf len = %d", len(buf))
		}
		buf[0] = byte(i)
		ptrs = append(ptrs, ptr)
	}
	if _, _, err := p.Alloc(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("alloc on full pool: %v", err)
	}
	if p.InUse() != 4 {
		t.Fatalf("InUse = %d", p.InUse())
	}
	for i, ptr := range ptrs {
		v, err := p.View(ptr)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] != byte(i) {
			t.Fatalf("chunk %d content %d", i, v[0])
		}
		if err := p.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if p.FreeChunks() != 4 {
		t.Fatalf("FreeChunks = %d", p.FreeChunks())
	}
}

func TestDoubleFree(t *testing.T) {
	_, p := newTestPool(t, 64, 2)
	ptr, _, _ := p.Alloc()
	if err := p.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(ptr); !errors.Is(err, ErrNotChunkStart) {
		t.Fatalf("double free: %v", err)
	}
}

func TestSliceAndBounds(t *testing.T) {
	s, p := newTestPool(t, 100, 1)
	ptr, buf, _ := p.Alloc()
	for i := range buf {
		buf[i] = byte(i)
	}
	sub := ptr.Slice(10, 20)
	v, err := s.View(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 10 || v[0] != 10 || v[9] != 19 {
		t.Fatalf("sub view wrong: len=%d v0=%d", len(v), v[0])
	}
	// Out-of-range pointer rejected.
	bad := RichPtr{Pool: ptr.Pool, Off: 50, Len: 200}
	if _, err := s.View(bad); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("oob view: %v", err)
	}
	// Slice panics on bad range.
	defer func() {
		if recover() == nil {
			t.Fatal("Slice(30,10) did not panic")
		}
	}()
	ptr.Slice(30, 10)
}

func TestSpaceLookup(t *testing.T) {
	s, p := newTestPool(t, 32, 1)
	got, err := s.Pool(p.ID())
	if err != nil || got != p {
		t.Fatalf("Pool lookup = %v, %v", got, err)
	}
	if _, err := s.Pool(9999); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("missing pool: %v", err)
	}
	ptr, _, _ := p.Alloc()
	if _, err := s.View(ptr); err != nil {
		t.Fatal(err)
	}
	s.Drop(p.ID())
	if _, err := s.View(ptr); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("view after drop: %v", err)
	}
}

func TestWrongPoolPointer(t *testing.T) {
	s := NewSpace()
	p1, _ := s.NewPool("a", 32, 1)
	p2, _ := s.NewPool("b", 32, 1)
	ptr, _, _ := p1.Alloc()
	if _, err := p2.View(ptr); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("cross-pool view: %v", err)
	}
	if err := p2.Free(ptr); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("cross-pool free: %v", err)
	}
}

func TestStats(t *testing.T) {
	_, p := newTestPool(t, 16, 8)
	for i := 0; i < 5; i++ {
		ptr, _, _ := p.Alloc()
		if i%2 == 0 {
			_ = p.Free(ptr)
		}
	}
	a, f := p.Stats()
	if a != 5 || f != 3 {
		t.Fatalf("stats = %d,%d want 5,3", a, f)
	}
}

// Property: any interleaving of allocs and frees conserves chunks:
// allocated + free == total, and every alloc returns a distinct chunk.
func TestQuickAllocatorInvariants(t *testing.T) {
	prop := func(ops []bool) bool {
		s := NewSpace()
		p, err := s.NewPool("q", 8, 16)
		if err != nil {
			return false
		}
		live := make([]RichPtr, 0, 16)
		seen := make(map[uint32]bool)
		for _, alloc := range ops {
			if alloc {
				ptr, _, err := p.Alloc()
				if errors.Is(err, ErrPoolFull) {
					if len(live) != 16 {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				if seen[ptr.Off] {
					return false // double allocation of same chunk
				}
				seen[ptr.Off] = true
				live = append(live, ptr)
			} else if len(live) > 0 {
				ptr := live[len(live)-1]
				live = live[:len(live)-1]
				if err := p.Free(ptr); err != nil {
					return false
				}
				delete(seen, ptr.Off)
			}
		}
		return p.InUse() == len(live) && p.InUse()+p.FreeChunks() == 16
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	s := NewSpace()
	p, _ := s.NewPool("bench", 2048, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ptr, _, _ := p.Alloc()
		_ = p.Free(ptr)
	}
}

func BenchmarkView(b *testing.B) {
	s := NewSpace()
	p, _ := s.NewPool("bench", 2048, 64)
	ptr, _, _ := p.Alloc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.View(ptr); err != nil {
			b.Fatal(err)
		}
	}
}
