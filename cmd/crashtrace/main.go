// Command crashtrace regenerates Figure 4 (bitrate across an IP-server
// crash: a visible gap while the NIC resets and the link retrains, then
// recovery to full rate) and Figure 5 (bitrate across two packet-filter
// crashes with 1024 rules recovered: nearly invisible dips, zero loss).
//
// Usage:
//
//	crashtrace -target ip            # Figure 4
//	crashtrace -target pf            # Figure 5
//	crashtrace -target ip -csv       # machine-readable series
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"newtos/internal/core"
	"newtos/internal/experiments"
	"newtos/internal/trace"
)

func main() {
	target := flag.String("target", "ip", `component to crash: "ip" (Figure 4) or "pf" (Figure 5)`)
	csv := flag.Bool("csv", false, "emit CSV instead of the ASCII plot")
	total := flag.Duration("total", 0, "trace length (default: 14s for ip, 18s for pf, 10s otherwise)")
	flag.Parse()

	if err := run(*target, *csv, *total); err != nil {
		fmt.Fprintln(os.Stderr, "crashtrace:", err)
		os.Exit(1)
	}
}

func run(target string, csv bool, total time.Duration) error {
	opts := experiments.TraceOpts{Target: target, Total: total}
	title := fmt.Sprintf("bitrate across a %s crash", target)
	switch target {
	case core.CompIP:
		title = "Figure 4 — IP server crash at t=4s (NIC reset causes the gap)"
	case core.CompPF:
		opts.PFRules = 1024
		title = "Figure 5 — packet filter crashes at t=6s and t=12s (1024 rules recovered)"
	}

	samples, err := experiments.RunCrashTrace(opts)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(trace.CSV(samples))
		return nil
	}
	fmt.Println(title)
	fmt.Print(trace.Plot(samples, 12))
	return nil
}
