package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Shape of one run. A run sets the workload up setUps times. The first
// instance is warmed up with real traffic and measured over `windows`
// consecutive windows; the others come after it, so that the memory the
// windows report is the measured instance's and not their leftovers. Every
// metric is the median of its per-window values: the box the loads were
// sized on slows down and speeds up by a tenth over seconds (other tenants
// of the host), and a median of many short windows shrugs off a burst that
// a mean over the run would carry.
const (
	defaultSetUps  = 9
	defaultWindows = 10
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max-min)/median over the windows (or set-ups) the value is
	// the median of; 0 when there was only one.
	Spread float64 `json:"spread,omitempty"`
	// Samples is how many observations lie behind the value: ops for a
	// latency, windows for a rate.
	Samples int `json:"samples,omitempty"`
	// Note says when a percentile fell back to a lower one.
	Note string `json:"note,omitempty"`
	// Values are the per-run values when -runs asked for several.
	Values []float64 `json:"values,omitempty"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Op        string            `json:"op"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra carries numbers that are printed and saved but not gated: the
	// set-up time without warm-up, the p99, the TCP/UDP split of rr_small.
	Extra map[string]metric `json:"extra,omitempty"`
}

func of(vs []float64, unit string) metric {
	return metric{Value: median(vs), Unit: unit, Spread: spread(vs), Samples: len(vs)}
}

// warmUp is how long real traffic runs before the first window, so ARP is
// resolved, cwnd is open and the elastic pools have grown. Its first quarter
// counts as set-up: the time to the first verified op alone is ~20 ms of
// goroutine starts and page faults, which a busy host stretches by a third
// while it slows the ops themselves by a tenth, and a gate that noisy
// gates nothing.
func warmUp(seconds float64) (inSetUp, rest time.Duration) {
	total := time.Duration(min(1, seconds/8) * float64(time.Second))
	return total / 4, total - total/4
}

// setUpTimes are the two readings of one set-up: until every worker had a
// verified op behind it, and until the counted part of the warm-up was over.
type setUpTimes struct{ firstOp, warm []float64 }

// timedSetUp sets the workload up, lets it run for the counted part of the
// warm-up and appends both readings to t.
func timedSetUp(w *workload, seed int64, warm time.Duration, t *setUpTimes) (*run, error) {
	start := time.Now()
	r, err := setUp(w, seed, nil, false)
	if err != nil {
		return nil, err
	}
	t.firstOp = append(t.firstOp, time.Since(start).Seconds())
	time.Sleep(warm)
	t.warm = append(t.warm, time.Since(start).Seconds())
	return r, nil
}

// timeSetUps sets the workload up and tears it down again n times.
func timeSetUps(w *workload, seed int64, warm time.Duration, n int, t *setUpTimes) error {
	base := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		r, err := timedSetUp(w, seed, warm, t)
		if err != nil {
			return err
		}
		r.tearDown()
		if r.failed.Load() > 0 {
			return fmt.Errorf("%s: set-up %d failed: %v", w.name, i, r.errs)
		}
		if leaked := awaitGoroutines(base); leaked > 0 {
			return fmt.Errorf("%s: %d goroutines leaked by set-up %d", w.name, leaked, i)
		}
	}
	return nil
}

// finish fills in what the timed and the traced run report alike: the
// counts, the errors, and whether the run was correct.
func (r *run) finish(res *result, leaked int) {
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	for _, e := range r.errs {
		res.Errors = append(res.Errors, e.Error())
	}
	if leaked > 0 {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("core.goroutines_leaked: %d goroutines outlived the run", leaked))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
}

// percentileMetric reports the want-th percentile of sorted, or the highest
// one below it that the sample supports.
func percentileMetric(sorted []float64, want float64) metric {
	v, used := tail(sorted, want)
	m := metric{Value: v, Unit: "us", Samples: len(sorted)}
	if used < want {
		m.Note = fmt.Sprintf("p%g: fewer than %d samples beyond p%g", used, minBeyond, want)
	}
	return m
}

// runTimed is the untraced run: the one every end-to-end metric comes from.
func runTimed(w *workload, seed int64, seconds float64, setUps, windows int) (*result, error) {
	base := runtime.NumGoroutine()
	warm, rest := warmUp(seconds)
	var setups setUpTimes
	r, err := timedSetUp(w, seed, warm, &setups)
	if err != nil {
		return nil, err
	}
	time.Sleep(rest)
	ws := r.measure(windows, time.Duration(seconds/float64(windows)*float64(time.Second)))
	r.tearDown()
	leaked := awaitGoroutines(base)
	byKind := r.latencies(ws)
	if err := timeSetUps(w, seed, warm, setUps-1, &setups); err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Op: w.op, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	r.finish(res, leaked)

	var goodput, rate, p50, p95, cpu, all []float64
	for _, win := range ws {
		if win.ops() == 0 || len(win.lats) == 0 {
			return nil, fmt.Errorf("%s: a window completed no op: %v", w.name, r.errs)
		}
		goodput = append(goodput, win.bytes()*8/win.seconds()/1e6)
		rate = append(rate, win.ops()/win.seconds())
		cpu = append(cpu, float64((win.to.cpu-win.from.cpu).Microseconds())/win.ops())
		p50 = append(p50, percentile(win.lats, 50))
		p95 = append(p95, percentile(win.lats, 95))
		all = append(all, win.lats...)
	}
	sort.Float64s(all)
	res.Metrics["setup_s"] = of(setups.warm, "s")
	res.Metrics["goodput_mbps"] = of(goodput, "Mbit/s")
	res.Metrics["ops_per_s"] = of(rate, "1/s")
	res.Metrics["op_p50_us"] = metric{Value: median(p50), Unit: "us", Spread: spread(p50), Samples: len(all)}
	// The gated tail is p95. p99 is reported but not gated: on bulk_loss send
	// times are quantised in retransmission time-outs and the 99th percentile
	// sits on the edge between two of the steps, so it jumps by a quarter
	// from run to run; the 95th sits inside one.
	res.Metrics["op_p95_us"] = metric{Value: median(p95), Unit: "us", Spread: spread(p95), Samples: len(all)}
	res.Metrics["cpu_us_per_op"] = of(cpu, "us")
	last := ws[len(ws)-1].to.mem
	res.Metrics["mem_sys_mb"] = metric{Value: float64(last.Sys) / (1 << 20), Unit: "MiB", Samples: 1}

	res.Extra["setup_first_op_s"] = of(setups.firstOp, "s")
	res.Extra["op_p99_us"] = percentileMetric(all, 99)
	if len(byKind) > 1 {
		for kind, lats := range byKind {
			res.Extra[kind+"_p50_us"] = metric{Value: percentile(lats, 50), Unit: "us", Samples: len(lats)}
			res.Extra[kind+"_p99_us"] = percentileMetric(lats, 99)
		}
	}
	return res, nil
}
