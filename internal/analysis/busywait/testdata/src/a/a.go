// Package a exercises the busywait analyzer.
package a

import (
	"runtime"
	"time"
)

// spinUntil holds its processor until due.
func spinUntil(due time.Time) {
	for time.Now().Before(due) { // want `empty loop spins on the clock`
	}
}

// spinFor is the same wait written against a start instant.
func spinFor(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d { // want `empty loop spins on the clock`
	}
}

// yieldUntil polls the clock but lets other goroutines run between reads.
func yieldUntil(due time.Time) {
	for time.Until(due) > 0 {
		runtime.Gosched()
	}
}

// burn spins on purpose and says why.
func burn(d time.Duration) {
	start := time.Now()
	//lint:ignore busywait models CPU cost that does not yield the core.
	for time.Since(start) < d {
	}
}
