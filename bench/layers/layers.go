// Package layers drives each layer of the stack on its own, from outside:
// one goroutine steps the pure engines with a virtual clock and
// workload-shaped input, times the calls into their exported functions, and
// reports ns and heap allocations per unit of work. The numbers say what a
// layer costs when nothing else competes for the processor; the node
// counters of the traced run say how often that cost is paid.
package layers

import (
	"fmt"
	"runtime"
	"time"
)

// Metric is one per-layer number, named <module>.<metric>.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Span is one timed phase of a driver: N calls (or units) into a layer.
// Per-call spans would cost more than the calls they time (tens of ns
// each), so a driver records one span per phase and divides.
type Span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// Report is what the drivers measured.
type Report struct {
	Metrics []Metric
	Spans   []Span
}

func (r *Report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{name, v, unit})
}

// bench runs driver phases against a time budget.
type bench struct {
	rep    *Report
	budget time.Duration
	epoch  time.Time
	seed   int64
}

// cost is what one phase measured, per unit.
type cost struct {
	ns, allocs float64
	units      int
}

// run calls step, which does some units of work and returns how many,
// until the phase's budget is spent. ns is wall time per unit; a driver
// that wants only the time spent inside the layer keeps its own stopwatch.
func (b *bench) run(name string, step func() int) cost {
	for i := 0; i < 3; i++ {
		step() // warm caches and pools
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	units := 0
	for time.Since(start) < b.budget {
		units += step()
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	b.rep.Spans = append(b.rep.Spans, Span{
		Name: name, Parent: "layers",
		Start: int64(start.Sub(b.epoch)), End: int64(start.Sub(b.epoch) + el), N: int64(units),
	})
	if units == 0 {
		units = 1
	}
	return cost{
		ns:     float64(el) / float64(units),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(units),
		units:  units,
	}
}

// stopwatch accumulates the time spent inside one layer's calls.
type stopwatch struct {
	total time.Duration
	calls int
}

func (s *stopwatch) time(f func()) {
	t := time.Now()
	f()
	s.total += time.Since(t)
	s.calls++
}

func (s *stopwatch) reset() { *s = stopwatch{} }

// Run runs every layer driver, each phase for about budget, and returns
// their metrics. The whole call takes roughly 30 budgets.
func Run(budget time.Duration, seed int64) (*Report, error) {
	b := &bench{rep: &Report{}, budget: budget, epoch: time.Now(), seed: seed}
	drivers := []struct {
		name string
		run  func(*bench) error
	}{
		{"tcpeng", driveTCP}, {"udpeng", driveUDP}, {"ipeng", driveIP},
		{"pfeng", drivePF}, {"nic", driveNIC}, {"channel", driveChannel},
		{"memory", driveMemory},
	}
	for _, d := range drivers {
		start := time.Now()
		if err := d.run(b); err != nil {
			return nil, fmt.Errorf("layer driver %s: %w", d.name, err)
		}
		b.rep.Spans = append(b.rep.Spans, Span{
			Name: "layers." + d.name, Parent: "layers",
			Start: int64(start.Sub(b.epoch)), End: int64(time.Since(b.epoch)),
		})
	}
	return b.rep, nil
}
