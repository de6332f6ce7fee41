package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name           string
		a, b           metric
		higher         bool
		bound          float64
		want           string
		wantWorsenedBy float64
	}{
		{"lower-better within bound", metric{Value: 100}, metric{Value: 105}, false, 0.10, "ok", 0.05},
		{"lower-better beyond bound", metric{Value: 100}, metric{Value: 111}, false, 0.10, "worse", 0.11},
		{"lower-better improved", metric{Value: 100}, metric{Value: 50}, false, 0.10, "ok", -0.5},
		{"higher-better dropped", metric{Value: 100}, metric{Value: 85}, true, 0.10, "worse", 0.15},
		{"higher-better rose", metric{Value: 100}, metric{Value: 150}, true, 0.10, "ok", -0.5},
		{"spread wider than bound", metric{Value: 100, Spread: 0.12}, metric{Value: 101}, false, 0.10, "unresolved", 0.01},
		{"spread on the b side", metric{Value: 100}, metric{Value: 99, Spread: 0.3}, true, 0.25, "unresolved", 0.01},
		{"worse beats unresolved", metric{Value: 100, Spread: 0.5}, metric{Value: 200}, false, 0.10, "worse", 1},
	} {
		got, by := verdict(c.a, c.b, c.higher, c.bound)
		if got != c.want || !near(by, c.wantWorsenedBy) {
			t.Errorf("%s: verdict = %s by %v, want %s by %v", c.name, got, by, c.want, c.wantWorsenedBy)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "goodput_mbps", "unit": "Mbit/s", "better": "higher", "bound": 0.1},
		{"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
	}})
	rep := func(goodput, p50, spread float64, failed int64) *report {
		return &report{Workloads: map[string]*result{"bulk_tso": {
			Failed: failed,
			Metrics: map[string]metric{
				"goodput_mbps": {Value: goodput, Unit: "Mbit/s", Spread: spread},
				"op_p50_us":    {Value: p50, Unit: "us"},
			},
		}}}
	}
	a := write("a.json", rep(350, 2800, 0.02, 0))

	var out bytes.Buffer
	if err := compareFiles(spec, []string{a, write("same.json", rep(345, 2850, 0.03, 0))}, &out); err != nil {
		t.Errorf("agreeing runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 worse, 0 unresolved") {
		t.Errorf("agreeing runs:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(spec, []string{a, write("slow.json", rep(300, 2800, 0.02, 0))}, &out); err == nil {
		t.Errorf("a 14%% goodput drop passed:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(spec, []string{a, write("noisy.json", rep(350, 2800, 0.2, 0))}, &out); err != nil {
		t.Errorf("unresolved must not fail the comparison: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") || !strings.Contains(out.String(), "0 worse, 1 unresolved") {
		t.Errorf("a 20%% spread was not reported as unresolved:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(spec, []string{a, write("failing.json", rep(350, 2800, 0.02, 3))}, &out); err == nil {
		t.Errorf("new failed ops passed:\n%s", out.String())
	}
	if err := compareFiles(spec, []string{a}, &out); err == nil {
		t.Error("one file was accepted")
	}
}
