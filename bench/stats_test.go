package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {100, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// Fewer than ten samples beyond the percentile: report the next lower one.
func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		if got := supportedPercentile(99, c.n); got != c.want {
			t.Errorf("supportedPercentile(99, n=%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 500)
	for i := range s {
		s[i] = float64(i + 1)
	}
	v, used := tail(s, 99)
	if used != 95 || v != 475 {
		t.Errorf("tail(500 samples, 99) = %v at p%v, want 475 at p95", v, used)
	}
}

func TestMedianOfWindowsAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	vs := []float64{100, 90, 110}
	if m := of(vs, "x"); m.Value != 100 || !near(m.Spread, 0.2) || m.Samples != 3 {
		t.Errorf("of(%v) = %+v", vs, m)
	}
	if vs[0] != 100 {
		t.Error("median reordered its input")
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one window = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the acceptance rule uses.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 3, 7})
	if !near(q1, 3) || !near(q3, 10) {
		t.Errorf("quartiles(3 values) = %v, %v, want 3, 10", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 4})
	if !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles(2 values) = %v, %v, want 1.5, 4.5 (extrapolated, as Python does)", q1, q3)
	}
}

func TestMergeRunsUsesMedianAndQuartileSpread(t *testing.T) {
	var each []*result
	for i := 1; i <= 10; i++ {
		each = append(each, &result{
			Workload: "w", Correct: true, Attempted: 10,
			Metrics: map[string]metric{"m": {Value: float64(i), Unit: "u"}},
		})
	}
	each[3].Failed, each[3].Correct = 1, false
	m := merge(each)
	got := m.Metrics["m"]
	if got.Value != 5.5 || !near(got.Spread, (8.25-2.75)/5.5) || len(got.Values) != 10 {
		t.Errorf("merged metric = %+v", got)
	}
	if m.Correct || m.Failed != 1 || m.Attempted != 100 {
		t.Errorf("merged counts: correct %v failed %d attempted %d", m.Correct, m.Failed, m.Attempted)
	}
}

func TestPatternVerifyCatchesDamage(t *testing.T) {
	p := newPattern(7, 0)
	buf := make([]byte, 2*chunkBytes)
	p.fill(buf, 3*chunkBytes)
	// Any split of the stream verifies, stamps straddling the cut included.
	for _, cut := range []int{0, 1, 5, 4096, 4099, chunkBytes - 3, chunkBytes + 4100, len(buf)} {
		off := uint64(3 * chunkBytes)
		if !p.verify(buf[:cut], off, true) || !p.verify(buf[cut:], off+uint64(cut), true) {
			t.Errorf("clean stream split at %d failed verification", cut)
		}
	}
	if p.verify(buf, 3*chunkBytes+stampEvery, false) {
		t.Error("a stream shifted by one block passed the stamp check")
	}
	buf[4096+2] ^= 1 // inside a stamp
	if p.verify(buf, 3*chunkBytes, false) {
		t.Error("a damaged stamp passed")
	}
	buf[4096+2] ^= 1
	buf[5000] ^= 1 // filler: only the full check sees it
	if !p.verify(buf, 3*chunkBytes, false) || p.verify(buf, 3*chunkBytes, true) {
		t.Error("damaged filler: the stamp check should pass and the full check fail")
	}
	if other := newPattern(8, 0); other.verify(buf[:chunkBytes], 3*chunkBytes, false) {
		t.Error("another seed's stream passed")
	}
}
