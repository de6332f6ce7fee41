package proc

import (
	"fmt"
	"testing"
	"time"
)

// TestLoopGroupsStartStopConcurrently exercises processes under the race
// detector: several start, poll, restart, and shut down concurrently while
// the runners step them — no shared proc state may race.
func TestLoopGroupsStartStopConcurrently(t *testing.T) {
	const groups = 4
	procs := make([]*Proc, groups)
	svcs := make([]*echoService, groups)
	for g := 0; g < groups; g++ {
		svcs[g] = &echoService{}
		svc := svcs[g]
		procs[g] = New(fmt.Sprintf("grp%d", g+1), func() Service { return svc }, nil)
	}
	for _, p := range procs {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Each must make progress on the runners.
	deadline := time.Now().Add(2 * time.Second)
	for _, svc := range svcs {
		for svc.polls.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if svc.polls.Load() == 0 {
			t.Fatal("grouped loop never polled")
		}
	}
	// Concurrent restarts leave and join the runners.
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
