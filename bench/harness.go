package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"newtos/bench/layers"
	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

// sample is one completed op: when it ended (ns since the run's epoch) and
// how long it took. Each worker appends to its own slice; the slices are
// read only after the workers have exited.
type sample struct{ end, lat int64 }

// A recorder holds one worker's samples. kind names what its ops are when a
// workload mixes two ("tcp_rtt", "udp_rtt"), and is empty otherwise.
type recorder struct {
	kind    string
	samples []sample
}

// run is one instance of a workload: a LAN, the load generator's clients on
// both nodes, and the goroutines that drive them.
type run struct {
	w     *workload
	seed  int64
	full  bool // verify every byte of the bulk streams, not only the stamps
	tr    *tracer
	epoch time.Time

	lan  *core.LAN
	port uint16

	stop    chan struct{}
	workers sync.WaitGroup
	servers sync.WaitGroup
	ready   sync.WaitGroup // one per worker; done after its first verified op

	ops, bytes, attempted, failed atomic.Int64

	mu      sync.Mutex
	recs    []*recorder
	clients []*sock.Client
	wakers  []func() // unblock servers parked in Accept / RecvFrom
	errs    []error
}

func (r *run) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err)
	}
	r.mu.Unlock()
}

func (r *run) recorder(kind string) *recorder {
	rec := &recorder{kind: kind, samples: make([]sample, 0, 1<<16)}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	return rec
}

func (r *run) record(rec *recorder, start time.Time) {
	now := time.Now()
	rec.samples = append(rec.samples, sample{end: int64(now.Sub(r.epoch)), lat: int64(now.Sub(start))})
}

// client registers one application endpoint on a node; every worker and
// server goroutine gets its own, as separate processes would.
func (r *run) client(n *core.Node, name string) (*sock.Client, error) {
	c, err := sock.NewClient(n.Hub, name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.clients = append(r.clients, c)
	r.mu.Unlock()
	return c, nil
}

func (r *run) onStop(f func()) {
	r.mu.Lock()
	r.wakers = append(r.wakers, f)
	r.mu.Unlock()
}

// goWorker starts a load-generating goroutine that must signal r.ready
// exactly once; goServer starts one that need not.
func (r *run) goWorker(f func(signal func())) {
	r.ready.Add(1)
	r.workers.Add(1)
	go func() {
		defer r.workers.Done()
		var once sync.Once
		signal := func() { once.Do(r.ready.Done) }
		defer signal() // a worker that failed early must not hang set-up
		f(signal)
	}()
}

func (r *run) goServer(f func()) {
	r.servers.Add(1)
	go func() {
		defer r.servers.Done()
		f()
	}()
}

// setUp builds the two-node LAN, installs the PF rule sets, starts the
// workload's servers and workers, and returns once every worker has one
// verified op behind it. The elapsed time is what setup_s reports.
func setUp(w *workload, seed int64, tr *tracer, full bool) (*run, error) {
	cfg := core.SplitTSO()
	// The benchmark measures the stack, not hang recovery: on a loaded
	// 2-vCPU box a server loop can miss the default 250 ms heartbeat, and
	// a false hang-restart mid-window would abort connections.
	cfg.HeartbeatMiss = 5 * time.Second
	wcfg := nic.Gigabit()
	wcfg.Seed = seed
	if w.tune != nil {
		w.tune(&cfg, &wcfg)
	}
	lan, err := core.NewLAN(cfg, 1, wcfg)
	if err != nil {
		return nil, err
	}
	if err := lan.Start(); err != nil {
		lan.Stop()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &run{
		w: w, seed: seed, full: full, tr: tr, epoch: time.Now(), lan: lan,
		port: uint16(20000 + rng.Intn(20000)),
		stop: make(chan struct{}),
	}
	for _, n := range []*core.Node{lan.A, lan.B} {
		if err := installRules(n); err != nil {
			r.tearDown()
			return nil, err
		}
	}
	if err := w.start(r); err != nil {
		r.tearDown()
		return nil, err
	}
	done := make(chan struct{})
	go func() { r.ready.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		r.tearDown()
		return nil, fmt.Errorf("%s: workers not ready after 20s: %v", w.name, r.errs)
	}
	if r.failed.Load() > 0 {
		errs := r.errs
		r.tearDown()
		return nil, fmt.Errorf("%s: set-up failed: %v", w.name, errors.Join(errs...))
	}
	return r, nil
}

func installRules(n *core.Node) error {
	for _, rule := range layers.ScanRules() {
		if err := n.AddPFRule(rule); err != nil {
			return err
		}
	}
	return nil
}

// tearDown stops the workers, closes the clients and stops the LAN. It
// waits for every goroutine the run started.
func (r *run) tearDown() {
	// Workers see stop between ops and finish the op they are in; only then
	// are the servers parked in Accept or RecvFrom woken, so that no op
	// fails because its server left first.
	close(r.stop)
	r.workers.Wait()
	r.mu.Lock()
	wakers := r.wakers
	r.mu.Unlock()
	done := make(chan struct{})
	go func() { r.servers.Wait(); close(done) }()
	for waiting := true; waiting; {
		for _, f := range wakers {
			f()
		}
		select {
		case <-done:
			waiting = false
		case <-time.After(50 * time.Millisecond):
		}
	}
	r.mu.Lock()
	clients := r.clients
	r.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	r.lan.Stop()
}

// awaitGoroutines waits for the goroutine count to come back to base (±2):
// pump or wire goroutines left behind by one run compete with the next one
// for the two cores and silently break run-to-run agreement.
func awaitGoroutines(base int) (leaked int) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return 0
		}
		if time.Now().After(deadline) {
			return n - base
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// edge is the state of the process and the run at one window boundary.
type edge struct {
	at               time.Time
	sinceEpoch       int64
	cpu              time.Duration
	ops, bytes       int64
	mem              runtime.MemStats
	framesA, framesB uint64
	goroutines       int
}

func (r *run) edge() edge {
	// Collect garbage at every edge so each window starts from the same
	// heap state and its allocation counts are its own.
	runtime.GC()
	var e edge
	runtime.ReadMemStats(&e.mem)
	e.goroutines = runtime.NumGoroutine()
	e.framesA = r.lan.DeviceOf("a", 0).Stats().TxFrames
	e.framesB = r.lan.DeviceOf("b", 0).Stats().TxFrames
	e.ops, e.bytes = r.ops.Load(), r.bytes.Load()
	e.cpu = layers.CPUTime()
	e.at = time.Now()
	e.sinceEpoch = int64(e.at.Sub(r.epoch))
	return e
}

// window is what one measurement window saw.
type window struct {
	from, to edge
	lats     []float64 // µs, sorted; filled after the workers exit
}

func (w *window) seconds() float64 { return w.to.at.Sub(w.from.at).Seconds() }
func (w *window) ops() float64     { return float64(w.to.ops - w.from.ops) }
func (w *window) bytes() float64   { return float64(w.to.bytes - w.from.bytes) }
func (w *window) frames() float64 {
	return float64(w.to.framesA - w.from.framesA + w.to.framesB - w.from.framesB)
}

// measure sleeps through n consecutive windows of d each; neighbouring
// windows share an edge.
func (r *run) measure(n int, d time.Duration) []*window {
	ws := make([]*window, n)
	from := r.edge()
	for i := range ws {
		time.Sleep(d)
		ws[i] = &window{from: from, to: r.edge()}
		from = ws[i].to
	}
	return ws
}

// latencies hands every recorded sample to the window it ended in and
// returns the samples of all windows together, by recorder kind, sorted
// like the windows' own. Call it after tearDown.
func (r *run) latencies(ws []*window) map[string][]float64 {
	byKind := map[string][]float64{}
	for _, rec := range r.recs {
		for _, s := range rec.samples {
			for _, w := range ws {
				if s.end >= w.from.sinceEpoch && s.end < w.to.sinceEpoch {
					us := float64(s.lat) / 1e3
					w.lats = append(w.lats, us)
					byKind[rec.kind] = append(byKind[rec.kind], us)
					break
				}
			}
		}
	}
	for _, w := range ws {
		sort.Float64s(w.lats)
	}
	for _, lats := range byKind {
		sort.Float64s(lats)
	}
	return byKind
}
