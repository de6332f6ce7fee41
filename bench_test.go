// Package newtos_bench holds the top-level benchmark harness: one
// testing.B benchmark per paper artifact (every Table II row, the
// fault-injection tables, both crash-trace figures, the §IV micro-costs)
// plus the ablation benches (what each substitution costs — see
// docs/ARCHITECTURE.md "Substitutions and non-goals"). The cmd/ binaries print
// the paper-shaped reports; these benches make the same drivers available
// to `go test -bench`.
package newtos_bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/core"
	"newtos/internal/experiments"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/nic"
)

// benchTable2 runs one Table II row per benchmark iteration and reports
// the measured rate as a custom metric.
func benchTable2(b *testing.B, row experiments.Table2Row) {
	b.ReportAllocs()
	opts := experiments.Table2Opts{
		Duration: 700 * time.Millisecond, Wires: 2, ConnsPerWire: 2,
	}
	var total float64
	for i := 0; i < b.N; i++ {
		mbps, err := experiments.RunTable2Row(row, opts)
		if err != nil {
			b.Fatal(err)
		}
		total += mbps
	}
	b.ReportMetric(total/float64(b.N), "Mbps")
}

func BenchmarkTable2_Row1_Minix3Sync(b *testing.B)   { benchTable2(b, experiments.RowMinix3) }
func BenchmarkTable2_Row2_Split(b *testing.B)        { benchTable2(b, experiments.RowSplit) }
func BenchmarkTable2_Row3_SplitSC(b *testing.B)      { benchTable2(b, experiments.RowSplitSC) }
func BenchmarkTable2_Row4_SingleSC(b *testing.B)     { benchTable2(b, experiments.RowSingleSC) }
func BenchmarkTable2_Row5_SingleSCTSO(b *testing.B)  { benchTable2(b, experiments.RowSingleTSO) }
func BenchmarkTable2_Row6_SplitSCTSO(b *testing.B)   { benchTable2(b, experiments.RowSplitSCTSO) }
func BenchmarkTable2_Row7_LinuxMono10G(b *testing.B) { benchTable2(b, experiments.RowLinux) }

// BenchmarkTable3and4_FaultCampaign runs a scaled-down fault-injection
// campaign (Tables III & IV are regenerated in full by cmd/faultinject).
func BenchmarkTable3and4_FaultCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCampaign(experiments.CampaignOpts{Runs: 4, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		transparent, reachable, _, udpOK, _ := res.Counts()
		b.ReportMetric(float64(transparent), "transparent/4")
		b.ReportMetric(float64(reachable), "reachable/4")
		b.ReportMetric(float64(udpOK), "udpOK/4")
	}
}

// BenchmarkTable1_Recovery measures per-component recovery.
func BenchmarkTable1_Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		var worst time.Duration
		for _, r := range reps {
			if r.RecoveryDur > worst {
				worst = r.RecoveryDur
			}
		}
		b.ReportMetric(float64(worst.Microseconds()), "worst-restart-us")
	}
}

// BenchmarkFigure4_IPCrash runs a shortened Figure 4 trace and reports the
// post-recovery rate (the paper's claim: the connection recovers its
// original bitrate after the NIC-reset gap).
func BenchmarkFigure4_IPCrash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		samples, err := experiments.RunCrashTrace(experiments.TraceOpts{
			Target: core.CompIP, Total: 4 * time.Second,
			CrashAt:     []time.Duration{1500 * time.Millisecond},
			LinkUpDelay: 400 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(samples) == 0 {
			b.Fatal("no samples")
		}
		b.ReportMetric(samples[len(samples)-1].Mbps, "final-Mbps")
	}
}

// BenchmarkFigure5_PFCrash runs a shortened Figure 5 trace (two PF crashes
// with 1024 recovered rules) and reports the minimum post-warmup rate —
// near-invisibility of the crashes means it stays well above zero.
func BenchmarkFigure5_PFCrash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		samples, err := experiments.RunCrashTrace(experiments.TraceOpts{
			Target: core.CompPF, Total: 5 * time.Second,
			CrashAt: []time.Duration{2 * time.Second, 3500 * time.Millisecond},
			PFRules: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		min := -1.0
		for _, s := range samples {
			if s.T < time.Second {
				continue // slow-start warmup
			}
			if min < 0 || s.Mbps < min {
				min = s.Mbps
			}
		}
		b.ReportMetric(min, "min-Mbps-after-warmup")
	}
}

// --- §IV micro-benchmarks -------------------------------------------------

// BenchmarkSec4_ChannelEnqueue is the ~30-cycle headline number.
func BenchmarkSec4_ChannelEnqueue(b *testing.B) {
	bell := channel.NewDoorbell()
	out, in, _ := channel.NewQueue(4096, bell)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := in.Recv(); !ok {
				select {
				case <-stop:
					return
				default:
					// Empty queue: yield so a single-core box schedules
					// the producer instead of burning the timeslice.
					runtime.Gosched()
				}
			}
		}
	}()
	r := msg.Req{Op: msg.OpPing}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !out.Send(r) {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkSec4_ChannelBatch measures per-request cost of the batched fast
// path at batch sizes 1/8/64: one SendBatch (and one doorbell ring) moves
// the whole batch while a consumer drains with RecvBatch. Size 1 is the
// single-slot baseline; the gap to size 64 is the amortized per-request
// enqueue+doorbell overhead the server loops no longer pay.
func BenchmarkSec4_ChannelBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.ReportAllocs()
			bell := channel.NewDoorbell()
			out, in, _ := channel.NewQueue(4096, bell)
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				dst := make([]msg.Req, 256)
				for {
					if in.RecvBatch(dst) == 0 {
						select {
						case <-stop:
							return
						default:
							runtime.Gosched()
						}
					}
				}
			}()
			batch := make([]msg.Req, size)
			for i := range batch {
				batch[i] = msg.Req{Op: msg.OpPing}
			}
			b.ResetTimer()
			// b.N counts requests, so ns/op is directly per-request cost.
			for sent := 0; sent < b.N; {
				n := out.SendBatch(batch)
				if n == 0 {
					runtime.Gosched() // queue full: let the consumer drain
					continue
				}
				sent += n
			}
			b.StopTimer()
			close(stop)
			<-done
		})
	}
}

// BenchmarkSec4_RxBurst measures the elastic RX-pool burst path
// (docs/ARCHITECTURE.md "Elastic pools"): a 4× over-complement burst that
// must complete with zero device drops while the pool grows and then
// shrinks back. The drops metric is the acceptance signal; ns/op prices
// the grow/park/release machinery per frame.
func BenchmarkSec4_RxBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRxBurst(experiments.RxBurstOpts{Factor: 4, Elastic: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DeviceDrops), "drops")
		b.ReportMetric(float64(res.SegmentsPeak), "segs-peak")
		b.ReportMetric(float64(res.SegmentsEnd), "segs-end")
	}
}

// BenchmarkSec4_MultiNIC measures the multi-NIC aggregate row (two gigabit
// wires into one IP server) against the single-wire flagship, and smokes
// the link-failover path: a mid-transfer administrative link-down must
// complete the transfer over the surviving NIC. Metrics: single/aggregate
// Mbps and failover recovery in milliseconds.
func BenchmarkSec4_MultiNIC(b *testing.B) {
	var single, aggregate, recoveryMs float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMultiNIC(experiments.Table2Opts{
			Duration: 600 * time.Millisecond, ConnsPerWire: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		fo, err := experiments.RunLinkFailover(experiments.FailoverOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if fo.BytesReceived != fo.BytesSent {
			b.Fatalf("failover lost data: sent %d received %d", fo.BytesSent, fo.BytesReceived)
		}
		single += res.SingleMbps
		aggregate += res.AggregateMbps
		recoveryMs += float64(fo.Recovery.Milliseconds())
	}
	n := float64(b.N)
	b.ReportMetric(single/n, "single-Mbps")
	b.ReportMetric(aggregate/n, "aggregate-Mbps")
	b.ReportMetric(recoveryMs/n, "recovery-ms")
}

// BenchmarkSec4_PollEcho measures the event-driven socket API at scale:
// 512 concurrent TCP echo connections through the full split stack, served
// either by ONE poller goroutine (sock.Poller demuxing readiness edges) or
// by the classic goroutine-per-connection blocking server. conns-per-sec
// is connections fully served (connect, echo rounds, close) per second of
// wall time; the poller row proving ≥512 concurrent sockets on a single
// goroutine is the acceptance signal of the API redesign.
func BenchmarkSec4_PollEcho(b *testing.B) {
	for _, mode := range []struct {
		name   string
		poller bool
	}{{"poller-1-goroutine", true}, {"goroutine-per-conn", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var connsPerSec, peak float64
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunManyConns(experiments.ManyConnsOpts{
					Conns: 512, Rounds: 2, Poller: mode.poller,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completed != rep.Conns {
					b.Fatalf("completed %d of %d connections", rep.Completed, rep.Conns)
				}
				connsPerSec += float64(rep.Completed) / rep.Elapsed.Seconds()
				peak += float64(rep.PeakActive)
			}
			b.ReportMetric(connsPerSec/float64(b.N), "conns/sec")
			b.ReportMetric(peak/float64(b.N), "peak-concurrent")
		})
	}
}

// BenchmarkSec4_C100K measures connection scale: many mostly-idle TCP
// connections held established through the split stack while a 512-conn
// subset echoes. Reports establishment rate, per-Tick engine cost at
// baseline vs full population (idle connections arm no timer, so they are
// ~free per Tick), whole-process heap per connection, and active-
// subset echo latency. Defaults to 10k connections so the CI bench smoke
// stays fast; set C100K_CONNS=100000 for the full EXPERIMENTS.md row.
func BenchmarkSec4_C100K(b *testing.B) {
	conns := 10_000
	if v := os.Getenv("C100K_CONNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			b.Fatalf("bad C100K_CONNS=%q", v)
		}
		conns = n
	}
	var rate, ratio, fullNs, heap, rtt float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunC100K(experiments.C100KOpts{Conns: conns})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Established != conns {
			b.Fatalf("established %d of %d connections", rep.Established, conns)
		}
		rate += rep.ConnectRate
		ratio += rep.TickRatio
		fullNs += rep.FullTickNs
		heap += rep.HeapPerConn
		rtt += float64(rep.EchoAvgRTT.Microseconds())
	}
	n := float64(b.N)
	b.ReportMetric(rate/n, "conns/sec")
	b.ReportMetric(ratio/n, "tick-cost-ratio")
	b.ReportMetric(fullNs/n, "ns/tick-full")
	b.ReportMetric(heap/n, "B/conn")
	b.ReportMetric(rtt/n, "echo-rtt-us")
	b.ReportMetric(float64(conns), "conns")
}

// BenchmarkSec4_LiveUpdate measures the zero-downtime engine swap: the
// TCP server and the UDP server are live-upgraded while parked
// connections, a bulk transfer, and a UDP ping-pong run across the swap.
// Reports the worst handoff pause (the paper's comparison point is the
// ~1-RTO stall of crash recovery; minRTO here is 20ms). Sized down for
// the CI bench smoke; the EXPERIMENTS.md row uses the full 512-conn run.
func BenchmarkSec4_LiveUpdate(b *testing.B) {
	var pause, drain, transfer, rewire float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunLiveUpdate(experiments.LiveUpdateOpts{
			Conns: 96, Bulk: 256 * 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != rep.Conns || rep.Resets != 0 || !rep.BulkExact {
			b.Fatalf("swap was not transparent: %+v", rep)
		}
		pause += float64(rep.MaxPause().Microseconds())
		ph := rep.TCPPhases
		drain += float64(ph.Drain.Microseconds())
		transfer += float64(ph.Transfer.Microseconds())
		rewire += float64(ph.Rewire.Microseconds())
	}
	n := float64(b.N)
	b.ReportMetric(pause/n, "max-pause-us")
	b.ReportMetric(drain/n, "drain-us")
	b.ReportMetric(transfer/n, "transfer-us")
	b.ReportMetric(rewire/n, "rewire-us")
}

// BenchmarkSec4_KernelTrapHot is the ~150-cycle comparison point.
func BenchmarkSec4_KernelTrapHot(b *testing.B) {
	k := kipc.New(kipc.DefaultConfig())
	for i := 0; i < b.N; i++ {
		k.TrapHot()
	}
}

// BenchmarkSec4_KernelTrapCold is the ~3000-cycle comparison point.
func BenchmarkSec4_KernelTrapCold(b *testing.B) {
	k := kipc.New(kipc.DefaultConfig())
	for i := 0; i < b.N; i++ {
		k.TrapCold()
	}
}

// --- Ablations (docs/ARCHITECTURE.md "Substitutions and non-goals") -------

// BenchmarkAblation_PFJunction measures the cost of the packet filter in
// the T junction: the same transfer with and without PF.
func BenchmarkAblation_PFJunction(b *testing.B) {
	for _, withPF := range []bool{true, false} {
		name := "with-pf"
		if !withPF {
			name = "without-pf"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				mbps, err := runSplitOnce(withPF, true)
				if err != nil {
					b.Fatal(err)
				}
				total += mbps
			}
			b.ReportMetric(total/float64(b.N), "Mbps")
		})
	}
}

// BenchmarkAblation_TSO isolates TSO at fixed MTU on the split stack.
func BenchmarkAblation_TSO(b *testing.B) {
	for _, tso := range []bool{true, false} {
		name := "tso-on"
		if !tso {
			name = "tso-off"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				mbps, err := runSplitOnce(true, tso)
				if err != nil {
					b.Fatal(err)
				}
				total += mbps
			}
			b.ReportMetric(total/float64(b.N), "Mbps")
		})
	}
}

// runSplitOnce runs a quick single-wire split-stack transfer.
func runSplitOnce(pf, tso bool) (float64, error) {
	cfg := core.SplitTSO()
	cfg.PF, cfg.TSO = pf, tso
	return experiments.RunLANTransfer(cfg, nic.Gigabit(), experiments.Table2Opts{
		Duration: 600 * time.Millisecond, Wires: 1, ConnsPerWire: 2,
	})
}

// BenchmarkAblation_DoorbellSpin compares the doorbell's spin-then-block
// wake-up against immediate blocking (the paper's MWAIT latency argument).
func BenchmarkAblation_DoorbellSpin(b *testing.B) {
	d := channel.NewDoorbell()
	b.Run("ring-while-awake", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Ring()
		}
	})
	b.Run("arm-disarm-cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Arm()
			d.Disarm()
		}
	})
}
