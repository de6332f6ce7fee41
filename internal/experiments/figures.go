package experiments

import (
	"fmt"
	"slices"
	"time"

	"newtos/internal/core"
	"newtos/internal/faults"
	"newtos/internal/ipsrv"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/pf"
	"newtos/internal/pfeng"
	"newtos/internal/proc"
	"newtos/internal/sock"
	"newtos/internal/tcpsrv"
	"newtos/internal/trace"
	"newtos/internal/udpsrv"
)

// TraceOpts tunes the Figure 4 / Figure 5 crash-trace experiments. A zero
// field takes the target's default (fill).
type TraceOpts struct {
	// Target is the component to crash ("ip" for Figure 4, "pf" for 5).
	Target string
	// Total is the trace length (Figure 4: 14s; Figure 5: 18s; 10s for
	// any other target).
	Total time.Duration
	// CrashAt lists injection instants (Figure 4: {4s}; Figure 5: {6s,
	// 12s}; the middle of the trace for any other target).
	CrashAt []time.Duration
	// PFRules loads the filter with this many rules (Figure 5: 1024).
	PFRules int
	// LinkUpDelay is the device retrain time after reset; the Figure 4
	// gap ("it takes time for the link to come up again").
	LinkUpDelay time.Duration
}

// fill sets each zero field to its default for o.Target. The crash
// instant of a target other than ip or pf is the middle of the trace, so
// it follows Total.
func (o *TraceOpts) fill() {
	if o.Total == 0 {
		switch o.Target {
		case core.CompIP:
			o.Total = 14 * time.Second
		case core.CompPF:
			o.Total = 18 * time.Second
		default:
			o.Total = 10 * time.Second
		}
	}
	if len(o.CrashAt) == 0 {
		switch o.Target {
		case core.CompIP:
			o.CrashAt = []time.Duration{4 * time.Second}
		case core.CompPF:
			o.CrashAt = []time.Duration{6 * time.Second, 12 * time.Second}
		default:
			o.CrashAt = []time.Duration{o.Total / 2}
		}
	}
	if o.LinkUpDelay == 0 && o.Target == core.CompIP {
		o.LinkUpDelay = 800 * time.Millisecond
	}
}

// sampleEvery is the bitrate sampling interval of a crash trace, like the
// paper's tcpdump-derived plots.
const sampleEvery = 100 * time.Millisecond

// RunCrashTrace runs a single bulk TCP connection over one gigabit link,
// injects crashes into the target component of the RECEIVING node at the
// configured instants, and returns the receiver-side bitrate time series.
func RunCrashTrace(opts TraceOpts) ([]trace.Sample, error) {
	opts.fill()
	cfg := core.SplitTSO()
	cfg.HeartbeatMiss = 120 * time.Millisecond
	cfg.LinkUpDelay = opts.LinkUpDelay
	b, err := newBed(cfg, 1, nic.Gigabit(), core.LANOpts{}, opts.Total+10*time.Second)
	if err != nil {
		return nil, err
	}
	defer b.close()
	victim, err := crashTarget(b.lan.B, opts.Target)
	if err != nil {
		return nil, err
	}

	// Figure 5 recovers "a set of 1024 rules".
	if opts.PFRules > 0 {
		pfc, err := core.NewPFClient(b.lan.B.Hub, "figload")
		if err != nil {
			return nil, err
		}
		defer pfc.Close()
		for i := 0; i < opts.PFRules; i++ {
			rule := pfeng.Rule{
				Action: pfeng.Block, Dir: pfeng.In, Proto: netpkt.ProtoTCP,
				DstPort: uint16(20000 + i),
			}
			if err := pfc.AddRule(rule); err != nil {
				return nil, fmt.Errorf("rule %d: %w", i, err)
			}
		}
	}

	var sent, rcvd trace.Meter
	if _, err := b.bulkFlow(0, 5001, &sent, &rcvd); err != nil {
		return nil, err
	}
	sampler := trace.NewSampler(&rcvd, sampleEvery)
	start := time.Now()
	next := 0
	for time.Since(start) < opts.Total {
		if next < len(opts.CrashAt) && time.Since(start) >= opts.CrashAt[next] {
			// No fault point means the victim is down already (mid-restart).
			if f := victim.Fault(); f != nil {
				f.Arm(faults.Crash)
			}
			next++
		}
		time.Sleep(10 * time.Millisecond)
	}
	return sampler.Stop(), nil
}

// crashTarget resolves the component a crash experiment injects into. A
// name that is not a crashable component of n is an error, not a crash-free
// run under a "crash" title.
func crashTarget(n *core.Node, name string) (*proc.Proc, error) {
	if !slices.Contains(n.Components(), name) {
		return nil, fmt.Errorf("experiments: no component %q to crash on %s (have %v)", name, n.Cfg.Name, n.Components())
	}
	return n.Proc(name), nil
}

// RecoveryReport is one Table I row measured on the live system: how much
// state a component parks in the storage server and how long its restart
// takes.
type RecoveryReport struct {
	Component   string
	StateBytes  int
	RecoveryDur time.Duration
	// PeerDrops is how many staged requests the node's OTHER loops shed
	// during this recovery because they were produced for the dead
	// incarnation (wiring.Edge's restart rule) — the counter every
	// server now exports through wiring.DropReporter.
	PeerDrops uint64
	Notes     string
}

// RunTable1 crashes each component once on an idle-ish system and measures
// the recovery footprint.
func RunTable1() ([]RecoveryReport, error) {
	// One row per component, in crash order: what it parks in the storage
	// server (by the owning package's key) and what recovery does with it.
	rows := []struct {
		comp, notes string
		keys        []string
	}{
		{"eth0", "no state, device reset + IP resupply", nil},
		{core.CompIP, "static interface/route config from storage; NIC reset required", []string{ipsrv.StorageKey}},
		{core.CompUDP, "socket 4-tuples from storage; sockets recreated", []string{udpsrv.StorageKey, udpsrv.FlowsKey}},
		{core.CompPF, "rules from storage; conntrack rebuilt from transport flow tables", []string{pf.RulesKey}},
		{core.CompTCP, "listeners recovered; established connections reset by design", []string{tcpsrv.StorageKey, tcpsrv.FlowsKey}},
	}
	cfg := core.SplitTSO()
	cfg.HeartbeatMiss = 120 * time.Millisecond
	b, err := newBed(cfg, 1, nic.WireConfig{}, core.LANOpts{}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer b.close()
	lan := b.lan

	// Put some state into every component: a listener, a UDP socket, a
	// PF rule, an established connection.
	if err := lan.B.AddPFRule(pfeng.Rule{Action: pfeng.Block, Dir: pfeng.In, DstPort: 9999}); err != nil {
		return nil, err
	}
	srv, err := b.client(lan.B, "t1srv")
	if err != nil {
		return nil, err
	}
	l, err := listen(srv, 22, 4)
	if err != nil {
		return nil, err
	}
	b.echoServer(l)
	if _, err := bindUDP(srv, 53); err != nil {
		return nil, err
	}
	cli, err := b.client(lan.A, "t1cli")
	if err != nil {
		return nil, err
	}
	if _, err := dial(cli, sock.TCP, lan.IPOf("b", 0), 22); err != nil {
		return nil, err
	}

	var out []RecoveryReport
	for _, row := range rows {
		bytes := 0
		for _, key := range row.keys {
			if blob, ok := lan.B.Hub.Store.Get(key); ok {
				bytes += len(blob)
			}
		}
		before := len(lan.B.Monitor.Events())
		dropsBefore := lan.B.OutboxDroppedPer()
		p, err := crashTarget(lan.B, row.comp)
		if err != nil {
			return nil, err
		}
		p.Fault().Arm(faults.Crash)
		deadline := time.Now().Add(4 * time.Second)
		for len(lan.B.Monitor.Events()) <= before && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		evs := lan.B.Monitor.Events()
		rep := RecoveryReport{Component: row.comp, StateBytes: bytes, Notes: row.notes}
		if len(evs) > before {
			ev := evs[len(evs)-1]
			rep.RecoveryDur = ev.RecoveredAt.Sub(ev.DetectedAt)
		}
		time.Sleep(200 * time.Millisecond) // settle before the next crash
		// Per-component deltas, floored at zero: the crashed component's
		// own counter restarts from scratch with its new incarnation.
		for name, after := range lan.B.OutboxDroppedPer() {
			if b := dropsBefore[name]; after > b {
				rep.PeerDrops += after - b
			}
		}
		out = append(out, rep)
	}
	return out, nil
}
