package experiments

import (
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
)

// RunScaling measures one point of the multi-core scaling curve
// (docs/ARCHITECTURE.md "Multi-core data plane"): the flagship split stack
// with the TCP engine sharded N ways, with the runners that step the
// servers either left to the Go scheduler (pinned=false) or locked to OS
// threads pinned to distinct cores (pinned=true, core.Config.PinCores).
//
// Like RunTCPSharded, the wire is ten-gigabit with negligible latency so
// the transport — not wire pacing — is the bottleneck being scaled; compare
// curve points against each other, not against the paced Table II rows.
// Where sched_setaffinity is unavailable, pinning degrades to runners
// locked to unpinned threads.
func RunScaling(shards int, pinned bool, opts Table2Opts) (float64, error) {
	cfg := core.SplitTSO()
	cfg.TCPShards = shards
	cfg.PinCores = pinned
	wcfg := nic.TenGigabit()
	wcfg.Latency = 5 * time.Microsecond // keep BDP inside the 64 KB window
	return RunLANTransfer(cfg, wcfg, opts)
}

// RunTCPSharded measures aggregate outgoing TCP throughput with the TCP
// engine sharded N ways (docs/ARCHITECTURE.md "Sharded TCP"): the unpinned
// point of the scaling curve. Connections are spread across shards by the
// SYSCALL server's round-robin connect routing, so N shards put N engine
// loops to work on a multi-core box.
func RunTCPSharded(shards int, opts Table2Opts) (float64, error) {
	return RunScaling(shards, false, opts)
}
