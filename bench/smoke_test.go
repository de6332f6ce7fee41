package main

import (
	"path/filepath"
	"testing"
)

// spec is BENCHMARK.json as far as the smoke test checks it against the
// code: every declared name must be reported, and nothing else.
type specFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) specFile {
	t.Helper()
	var s specFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeclaredWorkloadsAreTheOnesTheCodeRuns(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: declared %q, code has %q", i, w.Name, workloads[i].name)
		}
	}
}

// Every workload runs for a fraction of a second with verification on and
// reports exactly the declared end-to-end metrics, none of them zero.
func TestSmokeTimedRuns(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		res, err := runTimed(w, 11, 0.4, 2, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		if len(res.Metrics) != len(s.EndToEnd) {
			t.Errorf("%s: %d metrics reported, %d declared", w.name, len(res.Metrics), len(s.EndToEnd))
		}
		for _, m := range s.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (reported %v), want a positive value in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// The traced run reports exactly the declared per-layer metrics, and the
// layers separate as the README predicts: loss recovery only where the wire
// drops frames, TSO frames only where TSO is on, storage puts per connection.
func TestSmokeTracedRuns(t *testing.T) {
	s := loadSpec(t)
	get := func(name string) *result {
		res, spans, layerSpans, err := runTraced(workloadByName(name), 12, 1.2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		if len(spans) == 0 || len(layerSpans) == 0 {
			t.Errorf("%s: %d sock spans, %d layer spans", name, len(spans), len(layerSpans))
		}
		if len(res.Metrics) != len(s.PerLayer) {
			t.Errorf("%s: %d metrics reported, %d declared", name, len(res.Metrics), len(s.PerLayer))
		}
		for _, m := range s.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (reported %v), want unit %s", name, m.Name, got, ok, m.Unit)
			}
		}
		for _, shell := range shells {
			if v := res.Metrics[shell.metric+".outbox_dropped"].Value; v != 0 {
				t.Errorf("%s: %s dropped %v staged requests", name, shell.metric, v)
			}
		}
		return res
	}
	// A spurious time-out on a slow box (the race detector makes one) can
	// retransmit on a lossless wire, so retx_ratio is held against a threshold
	// between the two regimes; frames lost and segments out of order cannot
	// happen there at all.
	const retxThreshold = 0.005
	mss := get("bulk_mss")
	for _, name := range []string{"nic.tso_frames", "nic.wire_lost", "tcpeng.drops_ooo"} {
		if v := mss.Metrics[name].Value; v != 0 {
			t.Errorf("bulk_mss: %s = %v, want 0", name, v)
		}
	}
	if v := mss.Metrics["tcpeng.retx_ratio"].Value; v > retxThreshold {
		t.Errorf("bulk_mss: tcpeng.retx_ratio = %v on a lossless wire", v)
	}
	if testing.Short() {
		return
	}
	loss := get("bulk_loss")
	for _, name := range []string{"nic.tso_frames", "nic.wire_lost", "tcpeng.drops_ooo"} {
		if loss.Metrics[name].Value == 0 {
			t.Errorf("bulk_loss: %s = 0, want > 0", name)
		}
	}
	if v := loss.Metrics["tcpeng.retx_ratio"].Value; v < retxThreshold {
		t.Errorf("bulk_loss: tcpeng.retx_ratio = %v on a wire that loses 1%% of frames", v)
	}
	churn := get("conn_churn")
	if churn.Metrics["storage.puts_per_conn"].Value == 0 {
		t.Error("conn_churn: storage.puts_per_conn = 0")
	}
	if _, ok := churn.Extra["churn.cycle_us_p50"]; !ok {
		t.Error("conn_churn: no churn.cycle span summary")
	}
}
