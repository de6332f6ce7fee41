// Package experiments contains the drivers that regenerate the tables and
// figures of the paper's evaluation (§VI): Table II (cmd/tcpperf, and the
// single-server row of the benchmark module), Tables I, III and IV
// (cmd/faultinject), Figures 4 and 5 (cmd/crashtrace), and the live update
// of §V. Every driver stands its LAN up on the same bed (bed.go), and the
// features a paper artifact does not exercise are tests of this package.
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

// Table2Opts sizes the experiment; every field must be positive.
type Table2Opts struct {
	// Duration of the measured transfer.
	Duration time.Duration
	// Wires is the number of links (the paper used 5): gigabit, or 10G
	// for the monolithic row.
	Wires int
	// ConnsPerWire runs parallel connections per link — the
	// window-limited per-connection rate times the flow parallelism the
	// asynchronous split stack is designed to exploit.
	ConnsPerWire int
}

// RunTable2Row measures peak outgoing TCP for one configuration and
// returns aggregate Mbps: Wires links, ConnsPerWire parallel bulk
// connections per link, measured after warmup. Every row is the same stack
// and the same two mirrored nodes; a row only chooses core.Config fields
// and the wire.
func RunTable2Row(row Table2Row, opts Table2Opts) (float64, error) {
	if opts.Duration <= 0 || opts.Wires <= 0 || opts.ConnsPerWire <= 0 {
		return 0, fmt.Errorf("experiments: %s: duration %v, %d wires, %d conns per wire: each must be positive",
			row, opts.Duration, opts.Wires, opts.ConnsPerWire)
	}
	cfg := core.SplitTSO() // row 6: every feature on, every server its own process
	wcfg := nic.Gigabit()
	switch row {
	case RowMinix3:
		// The original MINIX 3: one stack server without the SYSCALL server
		// or offloads, on a single time-shared CPU where every packet
		// crosses to and from the driver by synchronous kernel IPC
		// (kipc.Kernel.PacketRendezvous), each charged a calibrated
		// context switch.
		cfg.SingleServer, cfg.SyscallServer, cfg.Offload, cfg.TSO = true, false, false, false
		cfg.Kernel.SingleCore = true
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
	b, err := newBed(cfg, opts.Wires, wcfg, core.LANOpts{}, 30*time.Second)
	if err != nil {
		return 0, err
	}
	defer b.close()

	// ConnsPerWire bulk connections per wire; aggregate received bytes on B.
	var sent, rcvd trace.Meter
	for ci := 0; ci < opts.Wires*opts.ConnsPerWire; ci++ {
		if _, err := b.bulkFlow(ci%opts.Wires, uint16(9000+ci), &sent, &rcvd); err != nil {
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
