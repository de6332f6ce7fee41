package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call across a layer boundary, recorded from outside
// the program: the load generator wraps every call it makes into
// internal/sock, and every op those calls belong to. Spans of one
// connection share Conn; Parent is the span that caused this one (0 = none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Conn   int    `json:"conn"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // bytes or items the call moved
}

// tracer keeps spans in memory, one lane per goroutine so recording takes
// no lock, and writes them out when the benchmark ends. A nil *lane records
// nothing, which is how the untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	t     *tracer
	conn  int
	spans []span
}

// open is a handle to a span that has begun.
type open struct {
	id  uint64
	idx int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a recording lane for one goroutine; nil when t is nil.
func (t *tracer) lane(conn int) *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t, conn: conn}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

func (l *lane) begin(name string, parent open) open {
	if l == nil || !l.t.on.Load() {
		return open{}
	}
	id := l.t.next.Add(1)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent.id, Conn: l.conn, Name: name,
		Start: int64(time.Since(l.t.epoch)),
	})
	return open{id: id, idx: len(l.spans) - 1}
}

func (l *lane) end(o open, n int) {
	if o.id == 0 {
		return
	}
	s := &l.spans[o.idx]
	s.End = int64(time.Since(l.t.epoch))
	s.N = int64(n)
}

// all returns every finished span in start order. Call it only after the
// recording goroutines have exited.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.End != 0 {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// spanStats summarises the spans of one name: duration percentiles in µs
// and the mean of N.
type spanStats struct {
	count    int
	p50, p99 float64
	p99Used  float64
	meanN    float64
}

func summarise(spans []span, name string) spanStats {
	var durs []float64
	var sumN int64
	for _, s := range spans {
		if s.Name == name {
			durs = append(durs, float64(s.End-s.Start)/1e3)
			sumN += s.N
		}
	}
	st := spanStats{count: len(durs)}
	if len(durs) == 0 {
		return st
	}
	sort.Float64s(durs)
	st.p50 = percentile(durs, 50)
	st.p99, st.p99Used = tail(durs, 99)
	st.meanN = float64(sumN) / float64(len(durs))
	return st
}
