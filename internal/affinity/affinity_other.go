//go:build !linux

package affinity

import "runtime"

func allowedCPUs() []int {
	cpus := make([]int, runtime.NumCPU())
	for i := range cpus {
		cpus[i] = i
	}
	return cpus
}

// PinThread is unavailable: callers fall back to LockOSThread-only
// placement (the GOMAXPROCS-partitioned grouping still applies).
func PinThread(cpu int) error { return ErrUnsupported }

// UnpinThread is a no-op where PinThread is unavailable.
func UnpinThread() error { return nil }
