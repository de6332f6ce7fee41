package experiments

import (
	"testing"
	"time"
)

// TestLiveUpdateUnderLoad is the handoff-under-load battery: the TCP
// server and the UDP server are live-swapped while 512 poller-served
// connections are parked, a bulk transfer is mid-flight, and a UDP
// ping-pong is running. Zero resets, zero lost readiness events (every
// connection completes its post-swap round), byte-exact bulk completion,
// zero lost datagrams.
func TestLiveUpdateUnderLoad(t *testing.T) {
	opts := LiveUpdateOpts{}
	if testing.Short() {
		opts.Conns = 96
		opts.Bulk = 256 * 1024
	}
	rep, err := RunLiveUpdate(opts)
	if err != nil {
		t.Fatalf("report %+v: %v", rep, err)
	}
	if rep.Completed != rep.Conns {
		t.Errorf("completed %d/%d connections", rep.Completed, rep.Conns)
	}
	if rep.Resets != 0 {
		t.Errorf("%d connections reset across the swap", rep.Resets)
	}
	if !rep.BulkExact {
		t.Errorf("bulk echo not byte-exact (%d bytes back)", rep.BulkBytes)
	}
	if rep.UDPRounds == 0 {
		t.Error("UDP pinger never completed a round")
	}
	if rep.UDPPostSwap == 0 {
		t.Error("UDP server went silent after its live swap")
	}
	// "Well under one RTO" is the headline: minRTO is 20ms. The bound here
	// is loose (the race detector and CI noise inflate wall time), but a
	// drain that parks for an RTO-scale pause would still trip it.
	if p := max(rep.TCPPhases.Total(), rep.UDPPhases.Total()); p > 250*time.Millisecond {
		t.Errorf("handoff pause %v is not a zero-downtime swap", p)
	}
	t.Logf("live update: %d conns, bulk %d bytes, udp %d rounds, pauses tcp=%v udp=%v",
		rep.Completed, rep.BulkBytes, rep.UDPRounds, rep.TCPPhases, rep.UDPPhases)
}
