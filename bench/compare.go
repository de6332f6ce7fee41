package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// declared is the part of BENCHMARK.json the comparison needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges one (workload, metric) pair of a parent result a and a
// change's result b. worsening is how much worse b's value is than a's, as
// a share of a's, in the metric's own direction (negative = better). A
// worsening beyond the bound is "worse"; otherwise a spread wider than the
// bound on either side means the runs cannot resolve a change of that size,
// and the pair is "unresolved", not unchanged.
func verdict(a, b metric, higherIsBetter bool, bound float64) (status string, worsening float64) {
	if a.Value != 0 {
		worsening = (b.Value - a.Value) / a.Value
		if higherIsBetter {
			worsening = -worsening
		}
	}
	switch {
	case worsening > bound:
		return "worse", worsening
	case a.Spread > bound || b.Spread > bound:
		return "unresolved", worsening
	}
	return "ok", worsening
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and fails if any row is worse. failed ops on the b side are
// worse whatever the metrics say.
func compareFiles(specPath string, files []string, w io.Writer) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(files))
	}
	var spec declared
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b report
	if err := readJSON(files[0], &a); err != nil {
		return err
	}
	if err := readJSON(files[1], &b); err != nil {
		return err
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tworsening\tbound\tspread a/b\tverdict")
	worse, unresolved := 0, 0
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		for _, m := range spec.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue // a traced result has no end-to-end metrics
			}
			st, by := verdict(ma, mb, m.Better == "higher", m.Bound)
			switch st {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%/%.1f%%\t%s\n",
				n, m.Name, ma.Value, mb.Value, m.Unit, by*100, m.Bound*100, ma.Spread*100, mb.Spread*100, st)
		}
		if rb.Failed > ra.Failed {
			worse++
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\tcount\t\t0%%\t\tworse\n", n, ra.Failed, rb.Failed)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
