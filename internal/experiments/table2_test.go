package experiments

import (
	"testing"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
)

// TestSplitStackBatchedRunCompletes drives full Table II split-stack
// transfers (every hop of the T junction: syscall → TCP → IP → PF → IP →
// driver) over the batched fast path, with the SYSCALL server (row 3) and
// without it (row 2, the doors hosted by the transports), and checks each
// completes with actual goodput.
func TestSplitStackBatchedRunCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full split-stack transfers")
	}
	runRows(t, RowSplit, RowSplitSC)
}

// TestSplitStackBatchedWithPFAndTSO covers the batched path with the packet
// filter verdict round-trip under TSO (row 6).
func TestSplitStackBatchedWithPFAndTSO(t *testing.T) {
	if testing.Short() {
		t.Skip("full split-stack transfer")
	}
	runRows(t, RowSplitSCTSO)
}

// TestSingleServerRowsRun runs the four rows that host the stack in one
// process (core.Config.SingleServer): each must move data, and the
// synchronous single-CPU row must sit well below the asynchronous
// single-server row — the shape the kernel cost model exists to show.
func TestSingleServerRowsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("four full-stack transfers")
	}
	mbps := runRows(t, RowMinix3, RowSingleSC, RowSingleTSO, RowLinux)
	if mbps[RowMinix3] >= mbps[RowSingleSC]/2 {
		t.Fatalf("row 1 (%.1f Mbps) is not below half of row 4 (%.1f Mbps)", mbps[RowMinix3], mbps[RowSingleSC])
	}
}

// runRows runs each Table II row end to end, two bulk connections on each
// of two wires into one IP server, fails t unless every row moves data, and
// returns each row's goodput. The three row tests together run every row of
// Table2Rows.
func runRows(t *testing.T, rows ...Table2Row) map[Table2Row]float64 {
	t.Helper()
	mbps := map[Table2Row]float64{}
	for _, row := range rows {
		got, err := RunTable2Row(row, Table2Opts{
			Duration: 300 * time.Millisecond, Wires: 2, ConnsPerWire: 2,
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
	return mbps
}

// TestTable2RejectsUnsetOptions: a zero or negative option is an error
// before any node starts, not a silent default.
func TestTable2RejectsUnsetOptions(t *testing.T) {
	ok := Table2Opts{Duration: time.Millisecond, Wires: 1, ConnsPerWire: 1}
	for _, bad := range []func(o *Table2Opts){
		func(o *Table2Opts) { o.Duration = 0 },
		func(o *Table2Opts) { o.Wires = -1 },
		func(o *Table2Opts) { o.ConnsPerWire = 0 },
	} {
		o := ok
		bad(&o)
		if _, err := RunTable2Row(RowSplitSCTSO, o); err == nil {
			t.Errorf("RunTable2Row(%+v) ran", o)
		}
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
