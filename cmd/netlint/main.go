// Netlint runs this repository's invariant analyzers (internal/analysis)
// over module packages:
//
//	go run ./cmd/netlint ./...
//	go run ./cmd/netlint ./internal/tcpeng ./internal/sock
//
// It loads the named patterns (default ./...) from the enclosing module,
// runs the full suite program-wide, prints one "file:line:col: analyzer:
// message" line per finding and exits nonzero if there are any.
package main

import (
	"fmt"
	"os"

	"newtos/internal/analysis"
	"newtos/internal/analysis/loader"
	"newtos/internal/analysis/suite"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := loader.ModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	pr, targets, err := loader.Load(root, patterns...)
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.Run(pr, targets, suite.Analyzers)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "netlint: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
