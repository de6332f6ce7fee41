//go:build linux

package affinity

import (
	"syscall"
	"unsafe"
)

// cpuSet mirrors the kernel's cpu_set_t (1024 bits).
type cpuSet [1024 / 64]uint64

func setAffinity(set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		0, // current thread
		uintptr(unsafe.Sizeof(*set)),
		uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
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
	return setAffinity(&set)
}

// UnpinThread restores an all-CPUs mask on the calling thread, undoing
// PinThread before the thread returns to the scheduler's pool.
func UnpinThread() error {
	var set cpuSet
	for i := range set {
		set[i] = ^uint64(0)
	}
	return setAffinity(&set)
}
