package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
	"newtos/internal/tcpsrv"
)

// C100KOpts tunes the connection-scale experiment.
type C100KOpts struct {
	// Conns is the total number of concurrent TCP connections to hold
	// established (default 100_000). All but ActiveSubset stay idle.
	Conns int
	// Ports is how many listener ports the server spreads accepts over
	// (default 8). Ephemeral-port capacity on the client is ~33k per
	// remote port, so >= 4 ports are needed to reach 100k connections
	// between one address pair.
	Ports int
	// Backlog is the per-listener accept backlog (default 4096).
	Backlog int
	// ActiveSubset is how many connections run echo traffic while the
	// rest idle (default 512).
	ActiveSubset int
	// Rounds is echo round trips per active connection in the latency
	// phase (default 4).
	Rounds int
	// Payload is the echo message size (default 128).
	Payload int
	// Workers is the client-side connect/echo worker pool size
	// (default 128). The load generator is not under test; workers just
	// pipeline control-plane calls.
	Workers int
	// Baseline is the connection count for the reference Tick-cost
	// sample (default 1000). The acceptance claim is that per-Tick cost
	// at Conns idle connections stays within 2x of this baseline.
	Baseline int
	// TickProbe is how many connections echo during a Tick sampling
	// window to keep the engine's loop iterating (default 64). Identical
	// at baseline and at scale, so the samples differ only in idle
	// population.
	TickProbe int
	// TickWindow is the sampling duration (default 300ms).
	TickWindow time.Duration
}

func (o *C100KOpts) fill() {
	if o.Conns == 0 {
		o.Conns = 100_000
	}
	if o.Ports == 0 {
		o.Ports = 8
	}
	if o.Backlog == 0 {
		o.Backlog = 4096
	}
	if o.ActiveSubset == 0 {
		o.ActiveSubset = 512
	}
	if o.ActiveSubset > o.Conns {
		o.ActiveSubset = o.Conns
	}
	if o.Rounds == 0 {
		o.Rounds = 4
	}
	if o.Payload == 0 {
		o.Payload = 128
	}
	if o.Workers == 0 {
		o.Workers = 128
	}
	if o.Baseline == 0 {
		o.Baseline = 1000
	}
	if o.Baseline > o.Conns {
		o.Baseline = o.Conns
	}
	if o.TickProbe == 0 {
		o.TickProbe = 64
	}
	if o.TickProbe > o.Baseline {
		o.TickProbe = o.Baseline
	}
	if o.TickWindow == 0 {
		o.TickWindow = 300 * time.Millisecond
	}
}

// C100KReport is the outcome of one RunC100K run.
type C100KReport struct {
	Conns       int // requested
	Established int // connections that completed the handshake
	PeakActive  int // most server-side connections open at once

	ConnectElapsed time.Duration // wall time to establish Established conns
	ConnectRate    float64       // conns/sec during establishment

	// Tick cost: average nanoseconds per TCP-engine Tick during an
	// identical probe workload, sampled at Baseline conns and at full
	// population. TickRatio = Full/Baseline; idle connections arm no timer,
	// so they are free per Tick and this stays near 1.
	BaselineConns  int
	BaselineTickNs float64
	FullTickNs     float64
	TickRatio      float64

	// HeapPerConn is the whole-process heap growth per established
	// connection (both stack nodes AND both app sides live in this
	// process, so it bounds the stack's true per-connection cost from
	// above).
	HeapPerConn float64

	// Echo latency over the active subset while Conns-ActiveSubset
	// connections idle alongside.
	EchoConns  int
	EchoRounds int
	EchoAvgRTT time.Duration
	EchoMaxRTT time.Duration
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// RunC100K holds Conns concurrent TCP connections established through the
// full split stack — mostly idle, with a small active echo subset — and
// measures what scale costs: connection-establishment rate, per-Tick
// engine cost at baseline vs full population (idle connections arm no
// timer, so they cost ~zero per Tick), heap per connection (heap pcbs,
// lazy TX buffers), and active-subset echo latency under the idle mass.
func RunC100K(opts C100KOpts) (C100KReport, error) {
	opts.fill()
	rep := C100KReport{Conns: opts.Conns, BaselineConns: opts.Baseline}

	cfg := core.SplitTSO()
	// Scale runs keep every loop busy for long stretches; under -race or
	// on loaded CI machines the default 250ms hang heartbeat would
	// false-positive and restart servers mid-experiment.
	cfg.HeartbeatMiss = 10 * time.Second
	b, err := newBed(cfg, 1, nic.Gigabit(), core.LANOpts{}, 120*time.Second)
	if err != nil {
		return rep, err
	}
	defer b.close()

	const basePort = 7100
	srv, err := b.client(b.lan.B, "c100ksrv")
	if err != nil {
		return rep, err
	}
	listeners := make([]*sock.Socket, opts.Ports)
	for i := range listeners {
		if listeners[i], err = listen(srv, uint16(basePort+i), opts.Backlog); err != nil {
			return rep, err
		}
	}
	var st echoStats
	b.pollEchoServer(srv, listeners, &st)

	cli, err := b.client(b.lan.A, "c100kcli")
	if err != nil {
		return rep, err
	}
	dst := b.lan.IPOf("b", 0)
	eng := b.lan.B.Proc(core.CompTCP).Service().(*tcpsrv.Server).Engine()

	heap0 := heapAlloc()

	// conns[i] is index-assigned by exactly one worker: no locking.
	conns := make([]*sock.Socket, opts.Conns)
	var established, issued atomic.Int64
	// Pacing: the accept side costs ~2 control RPCs per child through one
	// poller goroutine, so an unthrottled connect storm overruns the
	// aggregate accept backlog and SYNs start dropping until clients time
	// out. Keep issued-but-unaccepted connections well under the backlog.
	maxOutstanding := int64(opts.Ports*opts.Backlog) / 4
	if maxOutstanding > 8192 {
		maxOutstanding = 8192
	}
	connect := func(lo, hi int) error {
		return b.fanOut(opts.Workers, func(w int) error {
			for i := lo + w; i < hi; i += opts.Workers {
				stall := time.Now()
				for issued.Add(1); issued.Load()-st.accepted.Load() > maxOutstanding; {
					issued.Add(-1)
					if time.Since(stall) > 60*time.Second {
						return errors.New("c100k: accept side stalled")
					}
					time.Sleep(time.Millisecond)
					issued.Add(1)
				}
				s, err := dial(cli, sock.TCP, dst, uint16(basePort+i%opts.Ports))
				if err != nil {
					return fmt.Errorf("conn %d: %w", i, err)
				}
				conns[i] = s
				established.Add(1)
			}
			return nil
		})
	}

	// Phase 1: baseline population, then the reference Tick sample.
	start := time.Now()
	if err := connect(0, opts.Baseline); err != nil {
		return rep, err
	}
	probe := conns[:opts.TickProbe]
	rep.BaselineTickNs, err = sampleTick(eng, probe, opts.Payload, opts.TickWindow)
	if err != nil {
		return rep, err
	}

	// Phase 2: the idle mass.
	if err := connect(opts.Baseline, opts.Conns); err != nil {
		return rep, err
	}
	rep.ConnectElapsed = time.Since(start)
	rep.Established = int(established.Load())
	if rep.ConnectElapsed > 0 {
		rep.ConnectRate = float64(rep.Established) / rep.ConnectElapsed.Seconds()
	}
	heap1 := heapAlloc()
	if rep.Established > 0 && heap1 > heap0 {
		rep.HeapPerConn = float64(heap1-heap0) / float64(rep.Established)
	}

	// Phase 3: the same probe workload with the idle mass in place.
	rep.FullTickNs, err = sampleTick(eng, probe, opts.Payload, opts.TickWindow)
	if err != nil {
		return rep, err
	}
	if rep.BaselineTickNs > 0 {
		rep.TickRatio = rep.FullTickNs / rep.BaselineTickNs
	}

	// Phase 4: echo latency over the active subset.
	rep.EchoConns, rep.EchoRounds = opts.ActiveSubset, opts.Rounds
	active := conns[:opts.ActiveSubset]
	rtts := make([]time.Duration, opts.ActiveSubset*opts.Rounds)
	err = b.fanOut(opts.Workers, func(w int) error {
		data := make([]byte, opts.Payload)
		buf := make([]byte, opts.Payload)
		for i := w; i < len(active); i += opts.Workers {
			for r := 0; r < opts.Rounds; r++ {
				t0 := time.Now()
				if err := echoRound(active[i], data, buf); err != nil {
					return fmt.Errorf("echo conn %d round %d: %w", i, r, err)
				}
				rtts[i*opts.Rounds+r] = time.Since(t0)
			}
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	var sum time.Duration
	for _, d := range rtts {
		sum += d
		if d > rep.EchoMaxRTT {
			rep.EchoMaxRTT = d
		}
	}
	if len(rtts) > 0 {
		rep.EchoAvgRTT = sum / time.Duration(len(rtts))
	}
	rep.PeakActive = int(st.peak.Load())
	return rep, nil
}

// sampleTick measures average nanoseconds per TCP-engine Tick while the
// probe connections echo (server loops park when idle; the probe keeps
// Ticks flowing without itself scaling with the idle population).
func sampleTick(eng interface{ TickStats() (uint64, uint64) }, probe []*sock.Socket, payload int, window time.Duration) (float64, error) {
	data := make([]byte, payload)
	buf := make([]byte, payload)
	c0, n0 := eng.TickStats()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		for _, s := range probe {
			if err := echoRound(s, data, buf); err != nil {
				return 0, err
			}
		}
	}
	c1, n1 := eng.TickStats()
	if c1 == c0 {
		return 0, errors.New("c100k: no engine ticks observed in sampling window")
	}
	return float64(n1-n0) / float64(c1-c0), nil
}
