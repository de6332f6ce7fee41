// Package affinity pins OS threads to CPUs where the platform allows it
// (sched_setaffinity on Linux), so pinned runners (proc.Options.Pinned)
// actually land on distinct cores instead of merely being locked to
// distinct threads.
// Groups map onto the CPUs the process was started on — a taskset or
// cpuset restriction included — and an unpinned thread gets that set back.
// On platforms without an affinity syscall the package degrades to a
// deterministic GOMAXPROCS-partitioned group→CPU mapping that callers can
// still use for placement decisions, with PinThread reporting
// ErrUnsupported.
package affinity

import (
	"errors"
	"runtime"
)

// ErrUnsupported is returned by PinThread on platforms without a thread
// affinity syscall.
var ErrUnsupported = errors.New("affinity: not supported on this platform")

// allowed lists, in ascending order, the CPUs the process may run on.
var allowed = allowedCPUs()

// CPUForGroup maps a loop group (numbered from 1) to a CPU, partitioning
// the allowed CPUs up to GOMAXPROCS of them: group k lands on the k-th
// allowed CPU, so distinct groups land on distinct CPUs until groups
// outnumber CPUs, then wrap. Group 0 is "ungrouped" and maps to -1 (no
// placement).
func CPUForGroup(group int) int {
	n := len(allowed)
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	if group <= 0 || n == 0 {
		return -1
	}
	return allowed[(group-1)%n]
}
