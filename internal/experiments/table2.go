// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (§VI). The cmd/ binaries and the root
// benchmark suite are thin wrappers around these functions, so `go test
// -bench` and the standalone tools report identical numbers.
package experiments

import (
	"fmt"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/trace"
)

// Table2Row names one configuration of Table II.
type Table2Row string

// The seven rows of Table II.
const (
	RowMinix3     Table2Row = "minix3-sync-1cpu"
	RowSplit      Table2Row = "split-dedicated"
	RowSplitSC    Table2Row = "split-dedicated+sc"
	RowSingleSC   Table2Row = "single-server+sc"
	RowSingleTSO  Table2Row = "single-server+sc+tso"
	RowSplitSCTSO Table2Row = "split-dedicated+sc+tso"
	RowLinux      Table2Row = "linux-monolithic-10g"
)

// Table2Rows lists the rows in the paper's order.
var Table2Rows = []Table2Row{
	RowMinix3, RowSplit, RowSplitSC, RowSingleSC,
	RowSingleTSO, RowSplitSCTSO, RowLinux,
}

// PaperMbps records the paper's measured values for EXPERIMENTS.md
// comparisons.
var PaperMbps = map[Table2Row]float64{
	RowMinix3: 120, RowSplit: 3200, RowSplitSC: 3600, RowSingleSC: 3900,
	RowSingleTSO: 5000, RowSplitSCTSO: 5000, RowLinux: 8400,
}

// Table2Opts tunes the experiment.
type Table2Opts struct {
	// Duration of the measured transfer (default 2s).
	Duration time.Duration
	// Wires is the number of links (default 5, as in the paper): gigabit,
	// or 10G for the monolithic row.
	Wires int
	// ChunkBytes is the application write size (default 64 KB).
	ChunkBytes int
	// ConnsPerWire runs parallel connections per link (default 4) — the
	// window-limited per-connection rate times the flow parallelism the
	// asynchronous split stack is designed to exploit.
	ConnsPerWire int
}

func (o *Table2Opts) fill() {
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.Wires == 0 {
		o.Wires = 5
	}
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 64 * 1024
	}
	if o.ConnsPerWire == 0 {
		o.ConnsPerWire = 4
	}
}

// RunTable2Row measures peak outgoing TCP for one configuration and
// returns aggregate Mbps. Every row is the same stack, the same driver
// (RunLANTransfer) and the same two mirrored nodes; a row only chooses
// core.Config fields and the wire.
func RunTable2Row(row Table2Row, opts Table2Opts) (float64, error) {
	cfg := core.SplitTSO() // row 6: every feature on, every server its own process
	wcfg := nic.Gigabit()
	switch row {
	case RowMinix3:
		// The original MINIX 3: one stack server without the SYSCALL server
		// or offloads, on a single time-shared CPU where every packet
		// crosses to and from the driver by synchronous kernel IPC
		// (kipc.Kernel.PacketRendezvous). The context switch is calibrated,
		// not measured: ~80 µs per packet (two hand-offs of two traps, a
		// copy and two switches each) lands near the paper's 120 Mbps.
		cfg.SingleServer, cfg.SyscallServer, cfg.Offload, cfg.TSO = true, false, false, false
		cfg.Kernel.SingleCore = true
		cfg.Kernel.ContextSwitchCost = 18 * time.Microsecond
	case RowSplit:
		cfg.SyscallServer, cfg.TSO = false, false
	case RowSplitSC:
		cfg.TSO = false
	case RowSingleSC:
		cfg.SingleServer, cfg.TSO = true, false
	case RowSingleTSO:
		cfg.SingleServer = true
	case RowSplitSCTSO:
	case RowLinux:
		// The monolithic bound is this stack fused, without the SYSCALL
		// server or the packet filter, on as many links as the other rows,
		// each at 10G.
		cfg.SingleServer, cfg.SyscallServer, cfg.PF = true, false, false
		wcfg = nic.TenGigabit()
		wcfg.Latency = 5 * time.Microsecond // keep BDP within the 64 KB window
	default:
		return 0, fmt.Errorf("experiments: unknown row %q", row)
	}
	return RunLANTransfer(cfg, wcfg, opts)
}

// RunLANTransfer measures aggregate A→B TCP throughput over a two-node LAN
// in the given stack configuration: Wires links, ConnsPerWire parallel
// bulk connections per link, measured after warmup. It is the shared
// driver behind every Table II row and the multi-NIC comparison.
func RunLANTransfer(cfg core.Config, wcfg nic.WireConfig, opts Table2Opts) (float64, error) {
	opts.fill()
	b, err := newBed(cfg, opts.Wires, wcfg, core.LANOpts{}, 30*time.Second)
	if err != nil {
		return 0, err
	}
	defer b.close()

	// ConnsPerWire bulk connections per wire; aggregate received bytes on B.
	var sent, rcvd trace.Meter
	for ci := 0; ci < opts.Wires*opts.ConnsPerWire; ci++ {
		if _, err := b.bulkFlow(ci%opts.Wires, uint16(9000+ci), opts.ChunkBytes, &sent, &rcvd); err != nil {
			return 0, err
		}
	}

	// Measure after a warmup.
	time.Sleep(300 * time.Millisecond)
	startBytes := rcvd.Total()
	start := time.Now()
	time.Sleep(opts.Duration)
	elapsed := time.Since(start)
	gotBytes := rcvd.Total() - startBytes
	if err := b.failure(); err != nil {
		return 0, err
	}
	return float64(gotBytes) * 8 / elapsed.Seconds() / 1e6, nil
}
