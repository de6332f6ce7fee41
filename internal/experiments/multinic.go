package experiments

import (
	"fmt"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/trace"
)

// MultiNICResult compares one wire against two into the same IP server.
type MultiNICResult struct {
	// SingleMbps is the flagship configuration over one gigabit wire.
	SingleMbps float64
	// AggregateMbps is the same configuration with two gigabit wires into
	// one IP server — the Table 2-style multi-NIC aggregate row. Per-driver
	// batching isolates the device edges, so this should exceed the
	// single-NIC row.
	AggregateMbps float64
}

// RunMultiNIC measures the multi-NIC aggregate: the flagship split stack
// (SplitTSO) serving bulk TCP over one wire, then over two wires at once,
// every link terminating in the same IP server.
func RunMultiNIC(opts Table2Opts) (MultiNICResult, error) {
	opts.fill()
	cfg := core.SplitTSO()
	single := opts
	single.Wires = 1
	s, err := RunLANTransfer(cfg, nic.Gigabit(), single)
	if err != nil {
		return MultiNICResult{}, fmt.Errorf("multinic single: %w", err)
	}
	double := opts
	double.Wires = 2
	d, err := RunLANTransfer(cfg, nic.Gigabit(), double)
	if err != nil {
		return MultiNICResult{}, fmt.Errorf("multinic double: %w", err)
	}
	return MultiNICResult{SingleMbps: s, AggregateMbps: d}, nil
}

// FailoverOpts tunes RunLinkFailover.
type FailoverOpts struct {
	// Warmup is how long the transfer runs before the link is cut
	// (default 300ms).
	Warmup time.Duration
	// Tail is how long the transfer keeps running after recovery is
	// observed, to prove the surviving path is stable (default 300ms).
	Tail time.Duration
	// RecoveryBytes is how far past the at-cut byte count the receiver
	// must progress to call the transfer recovered — comfortably more
	// than the in-flight window, so residue draining does not count
	// (default 256 KB).
	RecoveryBytes uint64
	// Timeout bounds the whole experiment (default 15s).
	Timeout time.Duration
}

func (o *FailoverOpts) fill() {
	if o.Warmup == 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Tail == 0 {
		o.Tail = 300 * time.Millisecond
	}
	if o.RecoveryBytes == 0 {
		o.RecoveryBytes = 256 * 1024
	}
	if o.Timeout == 0 {
		o.Timeout = 15 * time.Second
	}
}

// FailoverResult reports one mid-transfer link-down run.
type FailoverResult struct {
	// BytesSent/BytesReceived are the application-level transfer totals;
	// equal totals mean TCP delivered everything across the failover.
	BytesSent     uint64
	BytesReceived uint64
	// Recovery is the time from the administrative link-down until the
	// receiver progressed RecoveryBytes past its at-cut total over the
	// surviving NIC.
	Recovery time.Duration
	// SurvivorRxBytes is how much the receiver's second device took in
	// after the cut (the failed-over traffic).
	SurvivorRxBytes uint64
	// DeadRxFramesAfterCut counts frames the dead wire's receiving device
	// still delivered after carrier loss (should be 0).
	DeadRxFramesAfterCut uint64
}

// RunLinkFailover runs a bulk TCP transfer over wire 0 of a two-wire LAN
// (peer-gateway routes installed), administratively kills that wire mid
// transfer, and measures how long the connection takes to resume over the
// surviving wire — the link-state failover path end to end: device carrier
// loss on both ends, driver link events, IP route failover (ARP-pending
// re-route, weak-host acceptance of the dead wire's address on the
// survivor), and TCP's RTO-driven retransmission via the new route.
func RunLinkFailover(opts FailoverOpts) (FailoverResult, error) {
	opts.fill()
	b, err := newBed(core.SplitTSO(), 2, nic.Gigabit(), core.LANOpts{PeerGateways: true}, opts.Timeout)
	if err != nil {
		return FailoverResult{}, err
	}
	defer b.close()
	lan := b.lan

	// Warm up on wire 0 (the sink is addressed via wire 0), then cut it.
	var sent, rcvd trace.Meter
	sinkDone, err := b.bulkFlow(0, 7100, 64*1024, &sent, &rcvd)
	if err != nil {
		return FailoverResult{}, err
	}
	time.Sleep(opts.Warmup)
	if err := b.failure(); err != nil {
		return FailoverResult{}, err
	}
	deadDev := lan.DeviceOf("b", 0)
	survivorDev := lan.DeviceOf("b", 1)
	survivorBytesAtCut := survivorDev.Stats().RxBytes
	atCut := rcvd.Total()
	cutAt := time.Now()
	lan.SetLink("a", 0, false)
	// Count from a moment after the cut: a frame the device was already
	// DMAing when carrier dropped completes microseconds later, and is not
	// the dead wire delivering.
	time.Sleep(time.Millisecond)
	deadFramesAtCut := deadDev.Stats().RxFrames

	// Recovery: the receiver moves RecoveryBytes past its at-cut total.
	res := FailoverResult{}
	deadline := cutAt.Add(opts.Timeout)
	for rcvd.Total() < atCut+opts.RecoveryBytes {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("failover: no recovery within %v (received %d bytes past cut)",
				opts.Timeout, rcvd.Total()-atCut)
		}
		time.Sleep(time.Millisecond)
	}
	res.Recovery = time.Since(cutAt)

	// Prove the surviving path is stable, then wind down: the sender
	// closes, the sink drains to EOF, and the totals must match — TCP
	// delivered every byte across the failover.
	time.Sleep(opts.Tail)
	b.quiesce()
	select {
	case <-sinkDone:
	case <-time.After(opts.Timeout):
		return res, fmt.Errorf("failover: sink did not drain to EOF")
	}
	if err := b.failure(); err != nil {
		return res, err
	}
	res.BytesSent = sent.Total()
	res.BytesReceived = rcvd.Total()
	res.SurvivorRxBytes = survivorDev.Stats().RxBytes - survivorBytesAtCut
	res.DeadRxFramesAfterCut = deadDev.Stats().RxFrames - deadFramesAtCut
	return res, nil
}
