package trace

import (
	"strings"
	"testing"
	"time"
)

func TestMeterCounts(t *testing.T) {
	var m Meter
	m.Add(100)
	m.Add(50)
	if m.Total() != 150 {
		t.Fatalf("Total = %d", m.Total())
	}
}

func TestSamplerProducesSeries(t *testing.T) {
	var m Meter
	s := NewSampler(&m, 20*time.Millisecond)
	for i := 0; i < 5; i++ {
		m.Add(25000) // 25 KB per 20ms = 10 Mbps
		time.Sleep(20 * time.Millisecond)
	}
	samples := s.Stop()
	if len(samples) < 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	// Average of the middle samples should be around 10 Mbps (very loose
	// bounds; timers are coarse).
	var sum float64
	for _, sm := range samples {
		sum += sm.Mbps
	}
	avg := sum / float64(len(samples))
	if avg < 2 || avg > 50 {
		t.Fatalf("avg = %.1f Mbps, expected around 10", avg)
	}
}

func TestCSVFormat(t *testing.T) {
	out := CSV([]Sample{{T: time.Second, Mbps: 123.456}})
	if !strings.HasPrefix(out, "seconds,mbps\n") || !strings.Contains(out, "1.000,123.5") {
		t.Fatalf("csv = %q", out)
	}
}

func TestPlotShapes(t *testing.T) {
	if Plot(nil, 4) != "(no samples)\n" {
		t.Fatal("empty plot")
	}
	out := Plot([]Sample{{T: 0, Mbps: 10}, {T: time.Second, Mbps: 5}}, 4)
	if !strings.Contains(out, "#") || !strings.Contains(out, "Mbps") {
		t.Fatalf("plot = %q", out)
	}
	// All-zero series must not divide by zero.
	_ = Plot([]Sample{{T: 0, Mbps: 0}}, 4)
}

func TestTableAlignment(t *testing.T) {
	out := Table("Title", [][2]string{{"a", "1"}, {"long-label", "2"}})
	if !strings.Contains(out, "Title\n=====") {
		t.Fatalf("table header: %q", out)
	}
	if !strings.Contains(out, "a           1") {
		t.Fatalf("alignment: %q", out)
	}
}

func TestMbpsFormat(t *testing.T) {
	if got := Mbps(125_000_000, time.Second); got != "1000 Mbps" {
		t.Fatalf("Mbps = %q", got)
	}
}
