package experiments

import (
	"testing"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
)

// TestSplitStackBatchedRunCompletes drives a full Table II split-stack
// transfer (every hop of the T junction: syscall → TCP → IP → PF → IP →
// driver) over the batched fast path — RecvBatch drains, per-iteration
// outbox flushes, and coalesced doorbells on every server loop — and
// checks the run completes with actual goodput.
func TestSplitStackBatchedRunCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full split-stack transfer")
	}
	mbps, err := RunTable2Row(RowSplitSC, Table2Opts{
		Duration: 500 * time.Millisecond, Wires: 2, ConnsPerWire: 2,
	})
	if err != nil {
		t.Fatalf("split-stack run failed: %v", err)
	}
	if mbps <= 0 {
		t.Fatalf("split-stack run moved no data (%.1f Mbps)", mbps)
	}
	t.Logf("split+sc with batching: %.1f Mbps", mbps)
}

// TestSplitStackBatchedWithPFAndTSO exercises the remaining split rows so
// the batched path is covered with the packet filter verdict round-trip
// under TSO as well.
func TestSplitStackBatchedWithPFAndTSO(t *testing.T) {
	if testing.Short() {
		t.Skip("full split-stack transfer")
	}
	mbps, err := RunTable2Row(RowSplitSCTSO, Table2Opts{
		Duration: 500 * time.Millisecond, Wires: 2, ConnsPerWire: 2,
	})
	if err != nil {
		t.Fatalf("split+tso run failed: %v", err)
	}
	if mbps <= 0 {
		t.Fatalf("split+tso run moved no data (%.1f Mbps)", mbps)
	}
	t.Logf("split+sc+tso with batching: %.1f Mbps", mbps)
}

// TestSingleServerRowsRun runs the four rows that host the stack in one
// process (core.Config.SingleServer): each must move data, and the
// synchronous single-CPU row must sit well below the asynchronous
// single-server row — the shape the kernel cost model exists to show.
func TestSingleServerRowsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("four full-stack transfers")
	}
	mbps := map[Table2Row]float64{}
	for _, row := range []Table2Row{RowMinix3, RowSingleSC, RowSingleTSO, RowLinux} {
		got, err := RunTable2Row(row, Table2Opts{
			Duration: 300 * time.Millisecond, Wires: 1, ConnsPerWire: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		if got <= 0 {
			t.Fatalf("%s moved no data", row)
		}
		mbps[row] = got
		t.Logf("%s: %.1f Mbps", row, got)
	}
	if mbps[RowMinix3] >= mbps[RowSingleSC]/2 {
		t.Fatalf("row 1 (%.1f Mbps) is not below half of row 4 (%.1f Mbps)", mbps[RowMinix3], mbps[RowSingleSC])
	}
}

// TestCrashTraceRejectsUnknownTarget: a mistyped target used to run a
// crash-free trace; it must fail before the transfer starts. On a
// single-server node the crashable component is the stack, not its shells.
func TestCrashTraceRejectsUnknownTarget(t *testing.T) {
	start := time.Now()
	if _, err := RunCrashTrace(TraceOpts{Target: "ipp", Total: 5 * time.Second}); err == nil {
		t.Fatal("RunCrashTrace accepted a component that does not exist")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("rejection took %v: the transfer ran first", took)
	}

	cfg := core.SplitTSO()
	cfg.SingleServer = true
	lan, err := core.NewLAN(cfg, 1, nic.WireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lan.Stop()
	if p, err := crashTarget(lan.B, core.CompStack); err != nil || p == nil {
		t.Fatalf("crashTarget(stack) = %v, %v", p, err)
	}
	if _, err := crashTarget(lan.B, core.CompIP); err == nil {
		t.Fatal("crashTarget accepted a hosted shell as a component")
	}
}
