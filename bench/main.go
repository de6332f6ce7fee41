// Command bench is the repository's benchmark: five socket-level workloads
// on a two-node simulated LAN, measured from the application's side of
// internal/sock, plus a traced run that breaks the cost down by layer. See
// README.md in this directory and BENCHMARK.json at the root of the
// repository.
//
// Run it from the root of the repository; run.sh builds it first:
//
//	bash bench/run.sh [-seed N] [-workload name] [-seconds S] [-trace 0|1] [-runs N] [-out file]
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"newtos/bench/layers"
)

const topology = "two flagship nodes (split stack, SYSCALL server, PF with 64+1 rules, csum offload, TSO) " +
	"on one simulated in-process gigabit wire, 50 us one-way: not a real link and not host loopback; " +
	"closed loop, 2 clients"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Int64("seed", 1, "seeds payload patterns, the wire's loss process and port choice")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: timed run, reports the end-to-end metrics")
		runs    = flag.Int("runs", 1, "runs per workload, each with the next seed; medians and quartile spreads are reported")
		out     = flag.String("out", filepath.Join("bench", "out", "result.json"), "where to write the results")
		spec    = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration (metric directions and bounds)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(*spec, flag.Args(), os.Stdout)
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1):
		err = fmt.Errorf("need -seconds > 0, -runs >= 1 and -trace 0 or 1")
	default:
		err = runAll(*name, *seed, *seconds, *trace == 1, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is the file -out writes and -compare reads.
type report struct {
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Runs       int                `json:"runs"`
	Commit     string             `json:"commit"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Topology   string             `json:"topology"`
	Workloads  map[string]*result `json:"workloads"`
}

func runAll(name string, seed int64, seconds float64, traced bool, runs int, out string) error {
	ws := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws = []*workload{w}
	}
	rep := &report{
		Seed: seed, Seconds: seconds, Traced: traced, Runs: runs, Commit: commit(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Topology: topology, Workloads: map[string]*result{},
	}
	fmt.Println(topology)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	// One process measures one run of one workload, as the driver's runs do:
	// a second run in the same process would inherit the first one's heap
	// (MemStats.Sys never shrinks) and garbage-collector pacing.
	inProcess := len(ws) == 1 && runs == 1
	var last *result
	bad := 0
	for _, w := range ws {
		var each []*result
		for i := 0; i < runs; i++ {
			var res *result
			var err error
			if inProcess {
				res, err = runOnce(w, seed+int64(i), seconds, traced, filepath.Dir(out))
			} else {
				res, err = runChild(w, seed+int64(i), seconds, traced, out+".run")
			}
			if err != nil {
				return err
			}
			each = append(each, res)
		}
		last = merge(each)
		rep.Workloads[w.name] = last
		printResult(last)
		if !last.Correct {
			bad++
		}
	}
	f, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(f, '\n'), 0o644); err != nil {
		return err
	}
	if len(ws) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		type valueUnit struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		metrics := map[string]valueUnit{}
		for n, m := range last.Metrics {
			metrics[n] = valueUnit{m.Value, m.Unit}
		}
		line, err := json.Marshal(map[string]any{
			"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) had failed or mis-verified ops", bad)
	}
	return nil
}

// runChild runs one workload once in a process of its own and returns what
// it wrote to its report, which is removed again.
func runChild(w *workload, seed int64, seconds float64, traced bool, out string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	defer os.Remove(out)
	var rep report
	if err := readJSON(out, &rep); err != nil || rep.Workloads[w.name] == nil {
		return nil, fmt.Errorf("%s with seed %d: %v; report: %v", w.name, seed, runErr, err)
	}
	// A child that wrote its report and then failed had failed ops; they are
	// in the report.
	return rep.Workloads[w.name], nil
}

func runOnce(w *workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	if !traced {
		return runTimed(w, seed, seconds, defaultSetUps, defaultWindows)
	}
	res, spans, layerSpans, err := runTraced(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace.json")
	if err := writeTrace(path, spans, layerSpans); err != nil {
		return nil, err
	}
	fmt.Printf("%d sock spans and %d layer-driver spans written to %s\n", len(spans), len(layerSpans), path)
	return res, nil
}

// merge folds the runs of one workload into one result: each metric is the
// median of its run values, and its spread the distance between their
// quartiles as a share of that median. One run passes through unchanged.
func merge(each []*result) *result {
	if len(each) == 1 {
		return each[0]
	}
	m := *each[0]
	m.Correct, m.Attempted, m.Failed, m.Errors = true, 0, 0, nil
	for _, r := range each {
		m.Correct = m.Correct && r.Correct
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		m.Errors = append(m.Errors, r.Errors...)
	}
	m.Metrics = mergeMetrics(each, func(r *result) map[string]metric { return r.Metrics })
	m.Extra = mergeMetrics(each, func(r *result) map[string]metric { return r.Extra })
	return &m
}

func mergeMetrics(each []*result, group func(*result) map[string]metric) map[string]metric {
	merged := map[string]metric{}
	for name, first := range group(each[0]) {
		var vs []float64
		for _, r := range each {
			vs = append(vs, group(r)[name].Value)
		}
		q1, q3 := quartiles(vs)
		agg := metric{Value: median(vs), Unit: first.Unit, Samples: len(vs), Values: vs, Note: "median of runs; spread is (Q3-Q1)/median"}
		if agg.Value != 0 {
			agg.Spread = (q3 - q1) / agg.Value
		}
		merged[name] = agg
	}
	return merged
}

func printResult(res *result) {
	fmt.Printf("\n%s  (op = %s)\n", res.Workload, res.Op)
	for _, group := range []map[string]metric{res.Metrics, res.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			line := fmt.Sprintf("  %-30s %14.4f %-7s", n, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf(" spread %5.1f%% n=%d", m.Spread*100, m.Samples)
			}
			fmt.Println(strings.TrimRight(line+" "+m.Note, " "))
		}
	}
	fmt.Printf("  attempted %d, failed %d, fail_ratio %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, e := range res.Errors {
		fmt.Println("  error:", e)
	}
}

// commit names the source the numbers came from; the driver's checkout is
// not a git repository, so "unknown" is a normal answer.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeTrace(path string, spans []span, layerSpans []layers.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Note   string        `json:"note"`
		Sock   []span        `json:"sock_spans"`
		Layers []layers.Span `json:"layer_spans"`
	}{
		"spans recorded by the benchmark around its calls into each layer; times are ns since the run (sock) or the drivers (layers) began",
		spans, layerSpans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
