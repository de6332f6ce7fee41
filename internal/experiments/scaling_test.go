package experiments

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestScalingPinnedRuns smoke-tests the pinned data plane end to end on any
// box: pinned runners must start, carry a short transfer, and shut down
// cleanly, unpinning their threads on the way out.
func TestScalingPinnedRuns(t *testing.T) {
	mbps, err := RunScaling(2, true, Table2Opts{
		Duration: 150 * time.Millisecond, Wires: 1, ConnsPerWire: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mbps <= 0 {
		t.Fatalf("pinned transfer moved no data (%.1f Mbps)", mbps)
	}
	t.Logf("pinned shards=2: %.0f Mbps", mbps)
}

// TestScalingSmoke asserts the pinned scaling curve is monotone from 1 to 4
// shards. That claim only holds on a multi-core runner, so the test is
// gated behind SCALING_SMOKE=1 (CI sets it on the 4-core executor).
func TestScalingSmoke(t *testing.T) {
	if os.Getenv("SCALING_SMOKE") == "" {
		t.Skip("set SCALING_SMOKE=1 on a multi-core runner to enable")
	}
	if runtime.NumCPU() < 4 {
		// With fewer cores than shards every group pins to the same CPU
		// and extra shards are pure overhead — the monotonicity claim is
		// about spreading, so there is nothing to assert here.
		t.Skipf("need >=4 CPUs to spread 4 pinned shards, have %d", runtime.NumCPU())
	}
	opts := Table2Opts{Duration: 600 * time.Millisecond, Wires: 2, ConnsPerWire: 4}
	one, err := RunScaling(1, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunScaling(4, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pinned shards=1: %.0f Mbps, shards=4: %.0f Mbps", one, four)
	// 10% slack: the claim is "no worse with more shards", not a fixed
	// speedup — wire pacing and the shared frontdoor bound the upside.
	if four < one*0.9 {
		t.Fatalf("scaling regression: shards=4 (%.0f Mbps) < 0.9 × shards=1 (%.0f Mbps)", four, one)
	}
}
