package experiments

import (
	"testing"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/trace"
)

// TestLinkFailover is the end-to-end multi-homed check: a bulk TCP transfer
// addressed to wire 0 of a two-wire LAN (peer-gateway routes installed)
// survives an administrative link-down of that wire mid-transfer. It covers
// the link-state failover path end to end: device carrier loss on both ends,
// driver link events, IP route failover (ARP-pending re-route, weak-host
// acceptance of the dead wire's address on the survivor), and TCP's
// RTO-driven retransmission via the new route. The second wire must carry
// the flow into the same IP server, and every byte the application sent
// must arrive.
func TestLinkFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("full failover transfer")
	}
	leaveNothingRunning(t)
	linkFailover(t, 250*time.Millisecond, 250*time.Millisecond)
}

// linkFailover runs TestLinkFailover's transfer: warmup on wire 0 before the
// cut, tail on the survivor after recovery, to show the survivor holds.
func linkFailover(t *testing.T, warmup, tail time.Duration) {
	t.Helper()
	const (
		// recoveryBytes is how far past the at-cut count the receiver must
		// get to call the transfer recovered: comfortably more than the
		// in-flight window, so draining residue does not count.
		recoveryBytes = 256 * 1024
		maxRecovery   = 10 * time.Second
		timeout       = 15 * time.Second
	)
	b, err := newBed(core.SplitTSO(), 2, nic.Gigabit(), core.LANOpts{PeerGateways: true}, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	lan := b.lan

	// Warm up on wire 0 (the sink is addressed via wire 0), then cut it.
	var sent, rcvd trace.Meter
	sinkDone, err := b.bulkFlow(0, 7100, &sent, &rcvd)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(warmup)
	if err := b.failure(); err != nil {
		t.Fatal(err)
	}
	deadDev, survivorDev := lan.DeviceOf("b", 0), lan.DeviceOf("b", 1)
	survivorBytesAtCut := survivorDev.Stats().RxBytes
	atCut := rcvd.Total()
	cutAt := time.Now()
	lan.SetLink("a", 0, false)
	// Count from a moment after the cut: a frame the device was already
	// DMAing when carrier dropped completes microseconds later, and is not
	// the dead wire delivering.
	time.Sleep(time.Millisecond)
	deadFramesAtCut := deadDev.Stats().RxFrames

	for rcvd.Total() < atCut+recoveryBytes {
		if time.Since(cutAt) > maxRecovery {
			t.Fatalf("no recovery within %v (received %d bytes past cut)", maxRecovery, rcvd.Total()-atCut)
		}
		time.Sleep(time.Millisecond)
	}
	recovery := time.Since(cutAt)

	// Wind down: the sender closes, the sink drains to EOF, and the totals
	// must match — TCP delivered every byte across the failover.
	time.Sleep(tail)
	b.quiesce()
	select {
	case <-sinkDone:
	case <-time.After(timeout):
		t.Fatal("sink did not drain to EOF")
	}
	if err := b.failure(); err != nil {
		t.Fatal(err)
	}
	if sent.Total() == 0 || rcvd.Total() != sent.Total() {
		t.Fatalf("transfer incomplete across failover: sent %d, received %d", sent.Total(), rcvd.Total())
	}
	survivorBytes := survivorDev.Stats().RxBytes - survivorBytesAtCut
	if survivorBytes == 0 {
		t.Fatal("no traffic on the surviving NIC after the cut")
	}
	if n := deadDev.Stats().RxFrames - deadFramesAtCut; n != 0 {
		t.Fatalf("dead wire still delivered %d frames after carrier loss", n)
	}
	t.Logf("failover: recovery %v, %d bytes total, %d bytes over survivor",
		recovery, rcvd.Total(), survivorBytes)
}
