// Command tcpperf regenerates Table II: peak performance of outgoing TCP
// in every stack configuration, from the original synchronous MINIX 3 mode
// to the split asynchronous stack with TSO and the fused, filterless
// 10G bound. Every row is the same stack under a different core.Config.
//
// Usage:
//
//	tcpperf [-wires 5] [-duration 2s] [-conns 4] [-row <name>]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"newtos/internal/experiments"
	"newtos/internal/trace"
)

func main() {
	wires := flag.Int("wires", 5, "number of gigabit links (the paper used 5)")
	duration := flag.Duration("duration", 2*time.Second, "measured transfer time per row")
	conns := flag.Int("conns", 4, "parallel connections per link")
	row := flag.String("row", "", "run a single row (empty = all)")
	flag.Parse()

	if err := run(*wires, *duration, *conns, *row); err != nil {
		fmt.Fprintln(os.Stderr, "tcpperf:", err)
		os.Exit(1)
	}
}

func run(wires int, duration time.Duration, conns int, only string) error {
	opts := experiments.Table2Opts{Wires: wires, Duration: duration, ConnsPerWire: conns}
	rows := experiments.Table2Rows
	if only != "" {
		rows = []experiments.Table2Row{experiments.Table2Row(only)}
	}
	out := make([][2]string, 0, len(rows))
	for _, r := range rows {
		mbps, err := experiments.RunTable2Row(r, opts)
		if err != nil {
			return fmt.Errorf("row %s: %w", r, err)
		}
		out = append(out, [2]string{string(r),
			fmt.Sprintf("%8.0f Mbps   (paper: %5.0f Mbps)", mbps, experiments.PaperMbps[r])})
	}
	fmt.Print(trace.Table("Table II — peak outgoing TCP by configuration", out))
	fmt.Println("\nShape, not absolute numbers, is the claim: the synchronous")
	fmt.Println("single-CPU mode sits an order of magnitude below the async")
	fmt.Println("configurations, the SYSCALL server helps the split stack, TSO")
	fmt.Println("helps every async row, and the fused 10G row bounds from above.")
	return nil
}
