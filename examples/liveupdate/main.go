// Liveupdate: replace live engines mid-traffic without rebooting — the
// paper's MS11-083 scenario (§V): "we are able to replace the buggy UDP
// component without rebooting. Given the fact that most Internet traffic
// is carried by the TCP protocol, this traffic remains completely
// unaffected by the replacement."
//
// Unlike a crash-recovery restart (examples/pingflood crashes IP and shows
// it reincarnated), this demo rides the drain-and-handoff path:
// Node.Upgrade quiesces the old engine at a batch boundary, streams its
// live state to a fresh incarnation, and re-points the wiring — no storage
// round-trip, no RTO stall. It runs experiments.RunLiveUpdate with a few
// echo connections: a TCP bulk transfer is mid-flight through the very TCP
// server being swapped and must come back byte-exact, and a UDP socket
// keeps answering after its server is swapped, without being reopened.
// Phase timings (drain, transfer, rewire, resume) are printed for each
// swap.
package main

import (
	"errors"
	"fmt"
	"log"

	"newtos/internal/experiments"
)

func main() {
	rep, err := experiments.RunLiveUpdate(experiments.LiveUpdateOpts{Conns: 8, Bulk: 512 * 1024})
	if err == nil {
		err = check(rep)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live-updated the engines on node B mid-transfer:\n  %s\n  %s\n", rep.TCPPhases, rep.UDPPhases)
	fmt.Printf("update complete: %d bytes echoed byte-exact across the live swap,\n", rep.BulkBytes)
	fmt.Printf("UDP socket survived without reopening (%d rounds after the swap)\n", rep.UDPPostSwap)
}

// check fails a run whose traffic did not survive the swaps intact.
func check(rep experiments.LiveUpdateReport) error {
	switch {
	case !rep.BulkExact:
		return fmt.Errorf("bulk echo not byte-exact (%d bytes back)", rep.BulkBytes)
	case rep.Resets != 0:
		return fmt.Errorf("%d of %d echo connections reset across the swap", rep.Resets, rep.Conns)
	case rep.UDPPostSwap == 0:
		return errors.New("UDP socket dead after the update")
	}
	return nil
}
