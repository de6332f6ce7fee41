//go:build linux

package affinity

import (
	"syscall"
	"unsafe"
)

// cpuSet mirrors the kernel's cpu_set_t (1024 bits).
type cpuSet [1024 / 64]uint64

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(uint(cpu)%64)) != 0 }

func affinityCall(trap uintptr, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(trap,
		0, // current thread
		uintptr(unsafe.Sizeof(*set)),
		uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
}

// startMask is the mask of the thread that initializes the package —
// before any loop can pin one — which is the set the process was started
// on. Should the read fail, every CPU counts as allowed.
var startMask = func() (set cpuSet) {
	if affinityCall(syscall.SYS_SCHED_GETAFFINITY, &set) != nil {
		for i := range set {
			set[i] = ^uint64(0)
		}
	}
	return set
}()

func allowedCPUs() []int {
	var cpus []int
	for cpu := 0; cpu < len(startMask)*64; cpu++ {
		if startMask.has(cpu) {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// PinThread restricts the calling OS thread to the given CPU. The caller
// must hold runtime.LockOSThread so the mask applies to the goroutine's
// thread for its lifetime.
func PinThread(cpu int) error {
	if cpu < 0 || cpu >= 1024 {
		return ErrUnsupported
	}
	var set cpuSet
	set[cpu/64] = 1 << (uint(cpu) % 64)
	return affinityCall(syscall.SYS_SCHED_SETAFFINITY, &set)
}

// UnpinThread gives the calling thread the process's starting mask back,
// undoing PinThread before the thread returns to the scheduler's pool — a
// thread of a taskset-restricted process stays inside that set.
func UnpinThread() error {
	set := startMask
	return affinityCall(syscall.SYS_SCHED_SETAFFINITY, &set)
}
