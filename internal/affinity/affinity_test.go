package affinity

import (
	"runtime"
	"testing"
)

func TestUngroupedHasNoCPU(t *testing.T) {
	for _, g := range []int{0, -1} {
		if got := CPUForGroup(g); got != -1 {
			t.Fatalf("CPUForGroup(%d) = %d, want -1", g, got)
		}
	}
}

// TestGroupsSpreadOverAllowedCPUs: group k lands on the k-th allowed CPU,
// so distinct groups get distinct allowed CPUs until they outnumber them
// (or GOMAXPROCS), and then wrap.
func TestGroupsSpreadOverAllowedCPUs(t *testing.T) {
	width := len(allowed)
	if p := runtime.GOMAXPROCS(0); p < width {
		width = p
	}
	in := map[int]bool{}
	for _, cpu := range allowed {
		in[cpu] = true
	}
	seen := map[int]bool{}
	for g := 1; g <= width; g++ {
		cpu := CPUForGroup(g)
		if !in[cpu] {
			t.Fatalf("group %d on CPU %d, outside the allowed set %v", g, cpu, allowed)
		}
		if seen[cpu] {
			t.Fatalf("group %d shares CPU %d before the groups wrap", g, cpu)
		}
		seen[cpu] = true
	}
	for g := width + 1; g <= 3*width; g++ {
		if CPUForGroup(g) != CPUForGroup(g-width) {
			t.Fatalf("group %d did not wrap onto group %d's CPU", g, g-width)
		}
	}
}
