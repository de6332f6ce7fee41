package proc

import (
	"fmt"
	"testing"
	"time"

	"newtos/internal/affinity"
)

// TestLoopGroupsStartStopConcurrently exercises pinned processes under
// the race detector: several start, poll, restart, and shut down
// concurrently. On platforms with sched_setaffinity their runners pin and
// unpin their threads; elsewhere the runners only lock them — either way
// no shared proc state may race.
func TestLoopGroupsStartStopConcurrently(t *testing.T) {
	const groups = 4
	procs := make([]*Proc, groups)
	svcs := make([]*echoService, groups)
	for g := 0; g < groups; g++ {
		svcs[g] = &echoService{}
		svc := svcs[g]
		procs[g] = New(fmt.Sprintf("grp%d", g+1), func() Service { return svc },
			Options{Pinned: true}, nil)
	}
	for _, p := range procs {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Each must make progress on the pinned runners (or the unpinned
	// fallback).
	deadline := time.Now().Add(2 * time.Second)
	for _, svc := range svcs {
		for svc.polls.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if svc.polls.Load() == 0 {
			t.Fatal("grouped loop never polled")
		}
	}
	// Concurrent restarts leave and join the pinned runners.
	done := make(chan error, groups)
	for _, p := range procs {
		go func(p *Proc) { done <- p.Restart() }(p)
	}
	for range procs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range procs {
		go func(p *Proc) { p.Shutdown(); done <- nil }(p)
	}
	for range procs {
		<-done
	}
	for _, p := range procs {
		if got := p.Status(); got != StatusStopped {
			t.Fatalf("status after shutdown = %v", got)
		}
	}
}

// TestCPUForGroupPartitions pins down the group→CPU mapping pinned runners
// use (runner i is group i+1):
// ungrouped maps to no placement, and consecutive groups only collide once
// groups outnumber the CPUs the process may run on (affinity's own tests
// check which CPUs those are).
func TestCPUForGroupPartitions(t *testing.T) {
	if got := affinity.CPUForGroup(0); got != -1 {
		t.Fatalf("CPUForGroup(0) = %d, want -1", got)
	}
	seen := map[int]int{}
	for g := 1; g <= 64; g++ {
		cpu := affinity.CPUForGroup(g)
		if cpu < 0 {
			t.Fatalf("CPUForGroup(%d) = %d", g, cpu)
		}
		seen[cpu]++
	}
	width := len(seen)
	first := map[int]bool{}
	for g := 1; g <= width; g++ {
		first[affinity.CPUForGroup(g)] = true
	}
	if len(first) != width {
		t.Fatalf("groups 1..%d share CPUs: %v", width, first)
	}
}
