// Package suite registers the netlint analyzers. It exists apart from
// package analysis so individual analyzers can import the framework without
// a cycle, and apart from cmd/netlint so tests can run the exact suite CI
// runs.
package suite

import (
	"newtos/internal/analysis"
	"newtos/internal/analysis/busywait"
	"newtos/internal/analysis/chunkleak"
	"newtos/internal/analysis/hotloop"
)

// Analyzers is the full netlint suite, in reporting-name order.
var Analyzers = []*analysis.Analyzer{
	busywait.Analyzer,
	chunkleak.Analyzer,
	hotloop.Analyzer,
}
