package affinity

import (
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"unsafe"
)

// threadCPUs reads the calling thread's mask straight from the kernel, so
// the test does not trust the package's own reading of it.
func threadCPUs(t *testing.T) []int {
	t.Helper()
	var set [1024 / 64]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		uintptr(unsafe.Sizeof(set)), uintptr(unsafe.Pointer(&set))); errno != 0 {
		t.Fatal(errno)
	}
	var cpus []int
	for cpu := 0; cpu < len(set)*64; cpu++ {
		if set[cpu/64]&(1<<(uint(cpu)%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

func setThreadCPUs(t *testing.T, cpus []int) {
	t.Helper()
	var set [1024 / 64]uint64
	for _, cpu := range cpus {
		set[cpu/64] |= 1 << (uint(cpu) % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0,
		uintptr(unsafe.Sizeof(set)), uintptr(unsafe.Pointer(&set))); errno != 0 {
		t.Fatal(errno)
	}
}

// checkPinThenUnpin: a locked thread pinned to group 1's CPU runs on that
// CPU alone, the CPU is one the process may use, and unpinning gives the
// thread its starting mask back.
func checkPinThenUnpin(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUs(t)
	cpu := CPUForGroup(1)
	if err := PinThread(cpu); err != nil {
		t.Fatalf("PinThread(%d) under mask %v: %v", cpu, start, err)
	}
	if got := threadCPUs(t); !reflect.DeepEqual(got, []int{cpu}) {
		t.Fatalf("pinned to %d, mask %v", cpu, got)
	}
	if err := UnpinThread(); err != nil {
		t.Fatal(err)
	}
	if got := threadCPUs(t); !reflect.DeepEqual(got, start) {
		t.Fatalf("UnpinThread left mask %v, want the starting %v", got, start)
	}
}

// TestUnpinRestoresStartMask runs the check here and again in a copy of
// this test binary started on one CPU — the last this thread may use, as
// `taskset -c <cpu>` would start it — where an all-CPUs unpin would escape
// the restriction and a group mapped to CPU index 0 could not pin at all.
func TestUnpinRestoresStartMask(t *testing.T) {
	const child = "AFFINITY_TEST_RESTRICTED"
	if os.Getenv(child) != "" {
		checkPinThenUnpin(t)
		return
	}
	checkPinThenUnpin(t)

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUs(t)
	if len(start) < 2 {
		t.Skipf("mask %v: nothing to restrict", start)
	}
	// The child inherits the mask of the thread that starts it.
	setThreadCPUs(t, start[len(start)-1:])
	defer setThreadCPUs(t, start)
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnpinRestoresStartMask$", "-test.count=1")
	cmd.Env = append(os.Environ(), child+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("started on CPU %d: %v\n%s", start[len(start)-1], err, out)
	}
}
