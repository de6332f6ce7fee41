package experiments

import (
	"fmt"
	"runtime"
	"time"

	"newtos/internal/ipeng"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/shm"
)

// RxBurstOpts tunes the zero-copy RX-pool burst experiment.
type RxBurstOpts struct {
	// Factor multiplies the static RX complement (ipeng.RxBufsPerDriver*8
	// chunks) to size the burst (default 4 — the scaling-cliff scenario
	// the ROADMAP names).
	Factor int
	// Hold is how many deliveries the simulated slow transport parks
	// un-acked before it starts releasing the oldest (default 2× the
	// static complement — more than a static pool can cover, well within
	// an elastic pool's cap).
	Hold int
	// Elastic turns the RX pool's growth policy on (the "after" run);
	// false reproduces the statically-sized seed behavior ("before").
	Elastic bool
}

func (o *RxBurstOpts) fill() {
	if o.Factor == 0 {
		o.Factor = 4
	}
	if o.Hold == 0 {
		o.Hold = 2 * ipeng.RxBufsPerDriver * 8
	}
}

// RxBurstResult reports one burst run.
type RxBurstResult struct {
	// Frames is how many frames the peer put on the wire.
	Frames int
	// DeviceDrops counts frames the device dropped for want of a posted
	// RX buffer (nic RxDropsNoBuf) — the paper-level failure the elastic
	// pool removes.
	DeviceDrops uint64
	// PoolPressure counts RX allocations IP lost to pool exhaustion.
	PoolPressure uint64
	// SegmentsPeak / SegmentsEnd are the RX pool's segment count at its
	// burst maximum and after the quiescence drain.
	SegmentsPeak int
	SegmentsEnd  int
	// Grows / Shrinks are the pool's cumulative elasticity events.
	Grows, Shrinks uint64
}

func (r RxBurstResult) String() string {
	return fmt.Sprintf("frames=%d drops=%d pressure=%d segments peak=%d end=%d (+%d/-%d)",
		r.Frames, r.DeviceDrops, r.PoolPressure, r.SegmentsPeak, r.SegmentsEnd, r.Grows, r.Shrinks)
}

// RunRxBurst drives one driver past the static RX-buffer complement: a
// peer device blasts Factor× the complement in UDP frames at an IP engine
// whose transport is slow (deliveries park un-acked up to Hold before the
// oldest is released), so RX buffers pile up exactly like a receive-side
// incast. With the pool static (seed behavior) IP runs out of buffers,
// stops resupplying, and the device drops on an empty ring; with
// Config.Elastic the pool grows segment by segment, the driver never
// starves, and after the burst drains — light traffic washing the
// grown-segment buffers back out of the device ring — quiescence shrinks
// the pool back to its base segment. The quiescence wait is not slept: the
// engine's clock is stepped to its Deadline, one retirement at a time.
//
// The rig is the real device/wire/engine fast path with the driver and
// transport loops played inline, so drops are counted by the same nic
// counters the full stack uses.
func RunRxBurst(opts RxBurstOpts) (RxBurstResult, error) {
	opts.fill()
	complement := ipeng.RxBufsPerDriver * 8
	frames := opts.Factor * complement

	selfIP := netpkt.MustIP("10.9.0.1")
	peerIP := netpkt.MustIP("10.9.0.2")
	selfMAC := netpkt.MAC{0xaa, 0, 0, 0, 0, 9}
	peerMAC := netpkt.MAC{0xbb, 0, 0, 0, 0, 9}

	spaceA, spaceB := shm.NewSpace(), shm.NewSpace()
	devA := nic.NewDevice(nic.DeviceConfig{Name: "eth0", MAC: selfMAC}, spaceA)
	devB := nic.NewDevice(nic.DeviceConfig{Name: "eth0", MAC: peerMAC}, spaceB)
	wire := nic.NewWire(nic.WireConfig{}) // unpaced: the burst arrives as fast as the device can take it
	wire.AttachA(devA)
	wire.AttachB(devB)
	defer func() {
		wire.Close()
		devA.Close()
		devB.Close()
	}()

	ecfg := ipeng.Config{
		Space:  spaceA,
		Ifaces: []ipeng.IfaceConfig{{Name: "eth0", IP: selfIP, MaskBits: 24}},
	}
	if opts.Elastic {
		ecfg.Elastic = ipeng.DefaultElastic()
	}
	eng, err := ipeng.New(ecfg)
	if err != nil {
		return RxBurstResult{}, err
	}
	eng.SetMAC("eth0", selfMAC)
	drv, udp := 0, len(eng.Peers())-1 // the peer table: eth0's driver first, UDP last

	// The peer's single TX frame: one UDP datagram addressed to the engine.
	poolB, err := spaceB.NewPool("peer.tx", 2048, 8)
	if err != nil {
		return RxBurstResult{}, err
	}
	framePtr, frameBuf, err := poolB.Alloc()
	if err != nil {
		return RxBurstResult{}, err
	}
	const payload = 26
	frameLen := netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + netpkt.UDPHeaderLen + payload
	eh := netpkt.EthHeader{Dst: selfMAC, Src: peerMAC, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(frameBuf)
	ih := netpkt.IPv4Header{
		TotalLen: uint16(frameLen - netpkt.EthHeaderLen), TTL: 64,
		Proto: netpkt.ProtoUDP, Src: peerIP, Dst: selfIP,
	}
	ih.Marshal(frameBuf[netpkt.EthHeaderLen:], true)
	uh := netpkt.UDPHeader{SrcPort: 7000, DstPort: 9, Length: netpkt.UDPHeaderLen + payload}
	uh.Marshal(frameBuf[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:])
	txDesc := nic.TxDesc{Ptrs: []shm.RichPtr{framePtr.Slice(0, uint32(frameLen))}}

	res := RxBurstResult{Frames: frames}
	var parked []msg.Req

	// pump plays one iteration of the driver and IP server loops: move
	// supplies and completions between the engine and the device, park
	// inbound deliveries like a slow transport, and release the oldest
	// once more than hold are waiting.
	pump := func(hold int) {
		eng.Tick(time.Now())
		for _, r := range eng.Drain(drv) {
			switch r.Op {
			case msg.OpRxSupply:
				_ = devA.PostRx(r.Ptrs[0])
			case msg.OpTxSubmit:
				_ = devA.PostTx(nic.TxDesc{Ptrs: r.Chain(), Cookie: r.ID})
			default:
				// The experiment pump only plays the RX/TX data path.
			}
		}
		now := time.Now()
		var fromDrv []msg.Req
		for _, c := range devA.CollectTx() {
			st := msg.StatusOK
			if !c.OK {
				st = msg.StatusErrNoBufs
			}
			fromDrv = append(fromDrv, msg.Req{ID: c.Cookie, Op: msg.OpTxDone, Status: st})
		}
		for _, c := range devA.CollectRx() {
			r := msg.Req{Op: msg.OpRxPacket}
			r.SetChain([]shm.RichPtr{c.Ptr})
			r.Arg[0] = uint64(c.Len)
			if c.CsumOK {
				r.Arg[1] = msg.FlagCsumOK
			}
			fromDrv = append(fromDrv, r)
		}
		if len(fromDrv) > 0 {
			// As Edge.Intake does: the engine hears from the driver only
			// when the driver sent something.
			eng.From(drv, fromDrv, now)
		}
		for _, d := range eng.Drain(udp) {
			if d.Op == msg.OpIPDeliver {
				parked = append(parked, d)
			}
		}
		var done []msg.Req
		for len(parked) > hold {
			done = append(done, msg.Req{ID: parked[0].ID, Op: msg.OpIPDeliverDone})
			parked = parked[1:]
		}
		eng.From(udp, done, now)
		if segs := eng.RxPoolCounters().Segments(); segs > res.SegmentsPeak {
			res.SegmentsPeak = segs
		}
	}

	accounted := func() uint64 {
		st := devA.Stats()
		return st.RxFrames + st.RxDropsNoBuf + st.RxDropsLinkDown
	}

	// Prime the driver: the initial supply complement must be posted
	// before the first frame hits the wire. IP supplies it when the
	// driver's edge first comes up, as on a driver restart.
	eng.Restart(drv, time.Now())
	pump(opts.Hold)

	// Burst phase: inject in sub-ring batches (the wire is unpaced, so
	// pacing by batch keeps "drops" meaning pool starvation, not the pump
	// goroutine losing a foot race with the wire).
	const batch = 64
	sent := 0
	for sent < frames {
		n := batch
		if frames-sent < n {
			n = frames - sent
		}
		for i := 0; i < n; i++ {
			for devB.PostTx(txDesc) != nil {
				devB.CollectTx()
				runtime.Gosched()
			}
		}
		sent += n
		target := uint64(sent)
		deadline := time.Now().Add(5 * time.Second)
		for accounted() < target {
			pump(opts.Hold)
			devB.CollectTx()
			// Yield so the device/wire goroutines actually carry the
			// frames on few-core boxes (the pump otherwise starves them).
			runtime.Gosched()
			if time.Now().After(deadline) {
				return res, fmt.Errorf("rxburst: stalled at %d/%d frames accounted", accounted(), target)
			}
		}
		pump(opts.Hold)
	}

	// Drain phase: release every parked delivery, then run light traffic
	// (deliver + ack immediately) so the buffers still posted in the
	// device ring migrate back to the base segment, and let the grown
	// segments retire at the deadlines the engine names.
	pump(0)
	washFrames := 3 * ipeng.RxBufsPerDriver
	for i := 0; i < washFrames; i++ {
		for devB.PostTx(txDesc) != nil {
			devB.CollectTx()
			runtime.Gosched()
		}
		target := uint64(frames + i + 1)
		deadline := time.Now().Add(5 * time.Second)
		for accounted() < target {
			pump(0)
			devB.CollectTx()
			runtime.Gosched()
			if time.Now().After(deadline) {
				return res, fmt.Errorf("rxburst: wash stalled at %d/%d", accounted(), target)
			}
		}
	}
	res.Frames += washFrames
	for due := eng.Deadline(); !due.IsZero() && eng.RxPoolCounters().Segments() > 1; due = eng.Deadline() {
		eng.Tick(due)
	}

	st := devA.Stats()
	res.DeviceDrops = st.RxDropsNoBuf
	res.PoolPressure = eng.Stats().RxPressure
	res.SegmentsEnd = eng.RxPoolCounters().Segments()
	res.Grows = eng.RxPoolCounters().Grows()
	res.Shrinks = eng.RxPoolCounters().Shrinks()
	return res, nil
}

// RunRxBurstComparison runs the burst twice — static pool (seed behavior)
// and elastic pool — and returns both: the before/after pair EXPERIMENTS.md
// records.
func RunRxBurstComparison(opts RxBurstOpts) (static, elastic RxBurstResult, err error) {
	opts.Elastic = false
	static, err = RunRxBurst(opts)
	if err != nil {
		return static, elastic, err
	}
	opts.Elastic = true
	elastic, err = RunRxBurst(opts)
	return static, elastic, err
}
