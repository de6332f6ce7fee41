package main

import (
	"fmt"
	"runtime"
	"time"

	"newtos/bench/layers"
	"newtos/internal/experiments"
)

// runTraced is the traced run: the one every per-layer metric comes from.
// It runs the workload once with the spans around the load generator's sock
// calls switched off and once with them on (the ratio of the two rates is
// the tracing overhead), verifies every byte of the bulk streams, reads the
// node's counters after the node has stopped, runs the layer drivers and
// one monolith transfer, and returns the spans for trace.json.
func runTraced(w *workload, seed int64, seconds float64) (*result, []span, []layers.Span, error) {
	base := runtime.NumGoroutine()
	tr := newTracer()
	tr.on.Store(true) // set-up calls (socket, connect, accept) are spans too
	r, err := setUp(w, seed, tr, true)
	if err != nil {
		return nil, nil, nil, err
	}
	ha, errA := grab(r.lan.A, r.lan.DeviceOf("a", 0))
	hb, errB := grab(r.lan.B, r.lan.DeviceOf("b", 0))
	if errA != nil || errB != nil {
		r.tearDown()
		return nil, nil, nil, fmt.Errorf("node counters: %v %v", errA, errB)
	}
	warm, rest := warmUp(seconds)
	time.Sleep(warm + rest)
	span := time.Duration(seconds / 4 * float64(time.Second))
	tr.on.Store(false)
	plain := r.measure(1, span)[0]
	tr.on.Store(true)
	traced := r.measure(1, span)[0]
	goroutines := traced.to.goroutines
	r.tearDown() // still traced: close is a sock call
	leaked := awaitGoroutines(base)
	spans := tr.all()

	res := &result{Workload: w.name, Op: w.op, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	r.finish(res, leaked)
	if plain.ops() == 0 || traced.ops() == 0 {
		return nil, nil, nil, fmt.Errorf("%s: a window completed no op: %v", w.name, r.errs)
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// sock: what the calls the load generator made cost it.
	send, recv := summarise(spans, "sock.send"), summarise(spans, "sock.recv")
	set("sock.send_us_p50", send.p50, "us")
	set("sock.send_us_p99", send.p99, "us")
	set("sock.recv_us_p50", recv.p50, "us")
	set("sock.recv_us_p99", recv.p99, "us")
	set("sock.recv_bytes_per_call", recv.meanN, "B")
	for _, call := range []string{"connect", "accept", "close", "socket"} {
		set("sock."+call+"_us_p50", summarise(spans, "sock."+call).p50, "us")
	}
	for _, op := range []string{"rr.tcp", "rr.udp", "churn.cycle"} {
		if st := summarise(spans, op); st.count > 0 {
			res.Extra[op+"_us_p50"] = metric{Value: st.p50, Unit: "us", Samples: st.count}
			m := metric{Value: st.p99, Unit: "us", Samples: st.count}
			if st.p99Used < 99 {
				m.Note = fmt.Sprintf("p%g", st.p99Used)
			}
			res.Extra[op+"_us_p99"] = m
		}
	}

	// core: the whole process over the traced window.
	t := traced
	set("core.allocs_per_pkt", float64(t.to.mem.Mallocs-t.from.mem.Mallocs)/max(t.frames(), 1), "count")
	set("core.alloc_bytes_per_byte", float64(t.to.mem.TotalAlloc-t.from.mem.TotalAlloc)/max(t.bytes(), 1), "B/B")
	set("core.gc_pause_ms", float64(t.to.mem.PauseTotalNs-t.from.mem.PauseTotalNs)/1e6, "ms")
	set("core.cpu_cores_busy", (t.to.cpu-t.from.cpu).Seconds()/t.seconds(), "cores")
	set("core.goroutines", float64(goroutines), "count")
	set("core.goroutines_leaked", float64(leaked), "count")
	set("core.trace_overhead_ratio", (traced.ops()/traced.seconds())/(plain.ops()/plain.seconds()), "ratio")

	nodeCounters(res, r, ha, hb)

	rep, err := layers.Run(time.Duration(seconds/120*float64(time.Second)), seed)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, m := range rep.Metrics {
		set(m.Name, m.Value, m.Unit)
	}
	// The paper's split-versus-single comparison: Table II row 5, a single
	// server with the SYSCALL server and TSO, on one wire with the same two
	// connections as bulk_tso.
	mono, err := experiments.RunTable2Row(experiments.RowSingleTSO, experiments.Table2Opts{
		Duration: time.Duration(seconds / 9 * float64(time.Second)), Wires: 1, ConnsPerWire: clients,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("monolith row: %w", err)
	}
	set("monolith.goodput_mbps", mono, "Mbit/s")
	if leaked := awaitGoroutines(base); leaked > 0 {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("%d goroutines outlived the layer drivers", leaked))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, spans, rep.Spans, nil
}

// nodeCounters turns the counters the stack already exports into per-layer
// metrics. Engine counters cover the node's whole life (set-up, warm-up,
// both windows), so they are reported as ratios or totals, not rates.
func nodeCounters(res *result, r *run, ha, hb nodeHandles) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ta, tb := ha.tcp.Stats(), hb.tcp.Stats()
	set("tcpeng.retx_ratio", ratio(ta.Retransmits+tb.Retransmits, ta.SegsOut+tb.SegsOut), "ratio")
	set("tcpeng.fast_retx", float64(ta.FastRetx+tb.FastRetx), "count")
	set("tcpeng.drops_ooo", float64(ta.DropsOOO+tb.DropsOOO), "count")
	set("tcpeng.drops_dup", float64(ta.DropsDup+tb.DropsDup), "count")
	set("tcpeng.dup_acks_in", float64(ta.DupAcksIn+tb.DupAcksIn), "count")
	ca, na := ha.tcp.TickStats()
	cb, nb := hb.tcp.TickStats()
	set("tcpeng.tick_ns_avg", ratio(na+nb, ca+cb), "ns")

	ua, ub := ha.udp.Stats(), hb.udp.Stats()
	set("udpeng.drops_queue_full", float64(ua.DroppedQueueFull+ub.DroppedQueueFull), "count")

	ia, ib := ha.ip.Stats(), hb.ip.Stats()
	set("ipeng.gro_segs_per_delivery", ratio(ia.GROCoalesced+ib.GROCoalesced+ia.GRODeliveries+ib.GRODeliveries, ia.GRODeliveries+ib.GRODeliveries), "count")
	set("ipeng.drops_ring_full", float64(ia.DropsRingFull+ib.DropsRingFull), "count")
	set("ipeng.rx_pressure", float64(ia.RxPressure+ib.RxPressure), "count")
	set("ipeng.tx_resubmitted", float64(ia.TxResubmitted+ib.TxResubmitted), "count")

	pa, pb := ha.pf.Stats(), hb.pf.Stats()
	set("pfeng.state_hit_ratio", ratio(pa.StateHits+pb.StateHits, pa.Passed+pb.Passed+pa.Blocked+pb.Blocked), "ratio")

	da, db := ha.dev.Stats(), hb.dev.Stats()
	set("nic.tx_frames", float64(da.TxFrames+db.TxFrames), "count")
	set("nic.tso_frames", float64(da.TSOFramesSynthesized+db.TSOFramesSynthesized), "count")
	set("nic.rx_drops_nobuf", float64(da.RxDropsNoBuf+db.RxDropsNoBuf), "count")
	_, lostAB, _, lostBA := r.lan.Wires[0].Stats()
	set("nic.wire_lost", float64(lostAB+lostBA), "count")

	putsA, _ := ha.store.Stats()
	putsB, _ := hb.store.Stats()
	set("storage.puts_per_conn", ratio(putsA+putsB, ta.ConnsOpened), "count")

	for _, s := range shells {
		set(s.metric+".outbox_dropped", float64(ha.drops[s.metric].OutboxDropped()+hb.drops[s.metric].OutboxDropped()), "count")
	}
}
