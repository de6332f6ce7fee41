package experiments

import (
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"time"

	"newtos/internal/core"
	"newtos/internal/faults"
	"newtos/internal/nic"
)

// processCPU is the CPU time (user + system) this process has used.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestDriversLeaveNothingRunning runs every driver at its smallest size and
// requires that it hands the process back as it found it: the goroutine
// count returns to its baseline and an idle half second afterwards uses
// under a tenth of one core. A client pump nobody closed, or a responder
// spinning on the errors of a stopped stack, fails here: either makes run N
// of a campaign depend on runs 0..N-1 of the same process.
func TestDriversLeaveNothingRunning(t *testing.T) {
	small := Table2Opts{Duration: 100 * time.Millisecond, Wires: 1, ConnsPerWire: 1}
	drivers := []struct {
		name string
		run  func() error
	}{
		{"RunTable2Row", func() error { _, err := RunTable2Row(RowSplitSCTSO, small); return err }},
		{"RunTable2Row/single-server", func() error { _, err := RunTable2Row(RowSingleTSO, small); return err }},
		{"RunMultiNIC", func() error { _, err := RunMultiNIC(small); return err }},
		{"RunLinkFailover", func() error {
			_, err := RunLinkFailover(FailoverOpts{Warmup: 100 * time.Millisecond, Tail: 50 * time.Millisecond})
			return err
		}},
		{"RunCrashTrace", func() error {
			_, err := RunCrashTrace(TraceOpts{
				Target: core.CompIP, Total: 600 * time.Millisecond,
				CrashAt: []time.Duration{200 * time.Millisecond}, LinkUpDelay: time.Millisecond,
			})
			return err
		}},
		{"RunTable1", func() error { _, err := RunTable1(); return err }},
		{"RunCampaign", func() error { _, err := RunCampaign(CampaignOpts{Runs: 6, Seed: 1}); return err }},
		{"RunManyConns/poller", func() error {
			_, err := RunManyConns(ManyConnsOpts{Conns: 8, Rounds: 1, Poller: true})
			return err
		}},
		{"RunManyConns/goroutines", func() error {
			_, err := RunManyConns(ManyConnsOpts{Conns: 8, Rounds: 1})
			return err
		}},
		{"RunC100K", func() error {
			_, err := RunC100K(C100KOpts{
				Conns: 64, Ports: 2, ActiveSubset: 8, Rounds: 1,
				Baseline: 16, TickProbe: 4, TickWindow: 20 * time.Millisecond,
			})
			return err
		}},
		{"RunLiveUpdate", func() error {
			_, err := RunLiveUpdate(LiveUpdateOpts{Conns: 8, Bulk: 64 * 1024})
			return err
		}},
		{"RunRxBurst", func() error { _, err := RunRxBurst(RxBurstOpts{Factor: 2, Elastic: true}); return err }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := d.run(); err != nil {
				t.Errorf("driver failed: %v", err)
			}
			// Exiting goroutines need a moment to be gone from the count.
			deadline := time.Now().Add(3 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before, %d after:\n%s", base, n, buf[:runtime.Stack(buf, true)])
			}
			cpu0 := processCPU(t)
			time.Sleep(500 * time.Millisecond)
			if used := processCPU(t) - cpu0; used > 50*time.Millisecond {
				t.Fatalf("idle process used %v of CPU in 500ms", used)
			}
		})
	}
}

// TestUDPQueryToUnboundPortReturns: a query nobody answers comes back false
// in bounded time. Every try carries a read deadline; without one the first
// RecvFrom blocks forever and the retries behind it never run.
func TestUDPQueryToUnboundPortReturns(t *testing.T) {
	b, err := newBed(core.SplitTSO(), 1, nic.WireConfig{}, core.LANOpts{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	cli, err := b.client(b.lan.A, "resolver")
	if err != nil {
		t.Fatal(err)
	}
	resolver, err := bindUDP(cli, 5353)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan bool, 1)
	start := time.Now()
	go func() { answered <- udpQuery(resolver, b.lan.IPOf("b", 0), 9, "anyone?") }()
	select {
	case ok := <-answered:
		if ok {
			t.Fatal("a port nobody bound answered the query")
		}
		t.Logf("gave up after %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(10 * time.Second):
		t.Fatal("udpQuery to an unbound port did not return")
	}
}

// TestCampaignPlanFollowsTheSeed: the injections are a pure function of the
// options — the same seed names the same campaign on every draw (a lottery
// laid out in map iteration order does not), another seed a different one.
func TestCampaignPlanFollowsTheSeed(t *testing.T) {
	first := campaignPlan(CampaignOpts{Runs: 100, Seed: 1})
	for i := 0; i < 20; i++ {
		if again := campaignPlan(CampaignOpts{Runs: 100, Seed: 1}); !reflect.DeepEqual(first, again) {
			t.Fatalf("seed 1 drew two different campaigns:\n%v\n%v", first, again)
		}
	}
	if other := campaignPlan(CampaignOpts{Runs: 100, Seed: 2}); reflect.DeepEqual(first, other) {
		t.Fatal("seeds 1 and 2 drew the same campaign")
	}
	hangs, perComp := 0, map[string]int{}
	for _, inj := range first {
		perComp[inj.comp]++
		if inj.kind == faults.Hang {
			hangs++
		}
	}
	if len(perComp) != 5 || hangs == 0 || hangs > 40 {
		t.Fatalf("implausible draw: %d hangs, components %v", hangs, perComp)
	}
}

// TestRepeatedInjectionDoesNotDegrade repeats one injection (IP, crash) in
// one process. When run k inherits leaked pumps and a spinning responder
// from runs 0..k-1, every run past some index is off: 168 ms for the first,
// 21 s and a flipped outcome for the ninth, failure from the tenth on. One
// odd run is let through, for a cause that does not depend on the index: on
// a shared host about one injection in 700 meets a stall of the whole
// process longer than the campaign's 120 ms heartbeat, which stretches that
// run (it no longer makes both nodes' monitors restart every component at
// once: reinc.Monitor.sweep discounts its own lateness). Until the stack runs
// on a virtual clock, the time allowance below is what such stalls get.
func TestRepeatedInjectionDoesNotDegrade(t *testing.T) {
	if testing.Short() {
		t.Skip("14 full injections")
	}
	var first RunOutcome
	var took []time.Duration
	odd := 0
	for run := 0; run < 14; run++ {
		start := time.Now()
		out, err := oneRun(core.CompIP, faults.Crash, run)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		took = append(took, time.Since(start).Round(time.Millisecond))
		if run == 0 {
			first = out
		}
		// The time allowance absorbs host stalls on a wall clock.
		if out != first || took[run] > 2*took[0]+600*time.Millisecond {
			odd++
			t.Logf("run %d took %v and classified %+v; run 0 took %v and classified %+v", run, took[run], out, took[0], first)
		}
	}
	t.Logf("wall time per run: %v", took)
	if odd > 1 {
		t.Errorf("%d of 14 identical injections differ from the first: the process degrades as it runs", odd)
	}
}

// TestCampaignMeetsTableIV gates the paper's headline dependability table
// instead of eyeballing it: over 20 seeded injections no run may need a
// reboot, and the transparent, reachable and UDP-transparent fractions may
// not fall below the paper's (Table IV: 70, 90 and 95 of 100).
func TestCampaignMeetsTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("20 full injections")
	}
	const runs = 20
	res, err := RunCampaign(CampaignOpts{Runs: runs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	transparent, reachable, tcpBroke, udpOK, reboot := res.Counts()
	t.Logf("of %d: transparent %d, reachable %d, broke TCP %d, UDP-transparent %d, reboot %d; distribution %v",
		runs, transparent, reachable, tcpBroke, udpOK, reboot, res.Distribution)
	for i, o := range res.Outcomes {
		t.Logf("run %2d: %+v", i, o)
	}
	if reboot != 0 {
		t.Errorf("%d of %d injections needed a reboot", reboot, runs)
	}
	for _, c := range []struct {
		what      string
		got, want int // want is the paper's count out of 100
	}{
		{"fully transparent", transparent, 70},
		{"reachable from outside", reachable, 90},
		{"transparent to UDP", udpOK, 95},
	} {
		if c.got*100 < c.want*runs {
			t.Errorf("%s: %d of %d, below the paper's %d of 100", c.what, c.got, runs, c.want)
		}
	}
}
