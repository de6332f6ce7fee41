// Package trace provides the measurement utilities of the evaluation:
// bitrate samplers for the Figure 4/5 time series, and simple table and
// ASCII-plot rendering so every experiment binary prints paper-shaped
// output.
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Meter counts bytes and samples bitrate over fixed intervals.
type Meter struct {
	bytes atomic.Uint64
}

// Add records n transferred bytes.
func (m *Meter) Add(n int) { m.bytes.Add(uint64(n)) }

// Total returns the cumulative byte count.
func (m *Meter) Total() uint64 { return m.bytes.Load() }

// BatchCounter aggregates the sizes of message batches moving through one
// point — e.g. one direction of one channel. The channel layer observes
// once per Publish (= one doorbell ring) and once per Done of a viewed run,
// so Batches() approximates wakeup-relevant events while Msgs() counts
// requests: their ratio is the achieved doorbell coalescing factor.
// Per-slot Send/Recv do not observe, keeping the cycle-counted single-slot
// path untouched.
//
// The struct is padded to a cache line so separately allocated counters
// (e.g. a queue's producer-side and consumer-side pair) do not false-share.
type BatchCounter struct {
	batches atomic.Uint64
	msgs    atomic.Uint64
	max     atomic.Uint64
	_       [40]byte
}

// Observe records one batch of n messages. n <= 0 is ignored.
func (c *BatchCounter) Observe(n int) {
	if n <= 0 {
		return
	}
	c.batches.Add(1)
	c.msgs.Add(uint64(n))
	for {
		cur := c.max.Load()
		if uint64(n) <= cur || c.max.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// Batches returns how many batches were observed.
func (c *BatchCounter) Batches() uint64 { return c.batches.Load() }

// Msgs returns the total messages across all batches.
func (c *BatchCounter) Msgs() uint64 { return c.msgs.Load() }

// Max returns the largest observed batch.
func (c *BatchCounter) Max() uint64 { return c.max.Load() }

// Avg returns the mean batch size (0 when nothing was observed).
func (c *BatchCounter) Avg() float64 {
	b := c.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(c.msgs.Load()) / float64(b)
}

func (c *BatchCounter) String() string {
	return fmt.Sprintf("%d msgs / %d batches (avg %.1f, max %d)",
		c.Msgs(), c.Batches(), c.Avg(), c.Max())
}

// Sample is one point of a bitrate time series.
type Sample struct {
	T    time.Duration // since sampling start
	Mbps float64
}

// Sampler periodically converts a Meter's delta into Mbps samples.
type Sampler struct {
	m        *Meter
	interval time.Duration
	samples  []Sample
	stop     chan struct{}
	done     chan struct{}
}

// NewSampler starts sampling m every interval.
func NewSampler(m *Meter, interval time.Duration) *Sampler {
	s := &Sampler{
		m: m, interval: interval,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *Sampler) run() {
	defer close(s.done)
	start := time.Now()
	last := s.m.Total()
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			cur := s.m.Total()
			mbps := float64(cur-last) * 8 / s.interval.Seconds() / 1e6
			s.samples = append(s.samples, Sample{T: time.Since(start), Mbps: mbps})
			last = cur
		}
	}
}

// Stop ends sampling and returns the series.
func (s *Sampler) Stop() []Sample {
	close(s.stop)
	<-s.done
	return s.samples
}

// CSV renders a series as "seconds,mbps" lines.
func CSV(samples []Sample) string {
	var b strings.Builder
	b.WriteString("seconds,mbps\n")
	for _, s := range samples {
		fmt.Fprintf(&b, "%.3f,%.1f\n", s.T.Seconds(), s.Mbps)
	}
	return b.String()
}

// Plot renders a series as a rough ASCII chart (time left to right).
func Plot(samples []Sample, height int) string {
	if len(samples) == 0 {
		return "(no samples)\n"
	}
	max := 0.0
	for _, s := range samples {
		if s.Mbps > max {
			max = s.Mbps
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	for row := height; row >= 1; row-- {
		thresh := max * float64(row) / float64(height)
		fmt.Fprintf(&b, "%7.0f |", thresh)
		for _, s := range samples {
			if s.Mbps >= thresh {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  Mbps  +%s\n", strings.Repeat("-", len(samples)))
	fmt.Fprintf(&b, "         0s ... %.1fs (%d samples)\n",
		samples[len(samples)-1].T.Seconds(), len(samples))
	return b.String()
}

// Table renders rows of label/value pairs with aligned columns.
func Table(title string, rows [][2]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	w := 0
	for _, r := range rows {
		if len(r[0]) > w {
			w = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", w, r[0], r[1])
	}
	return b.String()
}

// Mbps formats a rate.
func Mbps(bytes uint64, d time.Duration) string {
	return fmt.Sprintf("%.0f Mbps", float64(bytes)*8/d.Seconds()/1e6)
}
