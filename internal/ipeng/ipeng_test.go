package ipeng

import (
	"bytes"
	"log"
	"os"
	"reflect"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

var (
	selfIP = netpkt.MustIP("10.0.0.1")
	peerIP = netpkt.MustIP("10.0.0.2")
	selfM  = netpkt.MAC{0xaa, 0, 0, 0, 0, 1}
	peerM  = netpkt.MAC{0xbb, 0, 0, 0, 0, 1}
)

func newEngine(t *testing.T, pf bool) (*Engine, *shm.Space) {
	t.Helper()
	space := shm.NewSpace()
	e, err := New(Config{
		Space:     space,
		Ifaces:    []IfaceConfig{{Name: "eth0", IP: selfIP, MaskBits: 24}},
		PFEnabled: pf,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetMAC("eth0", selfM)
	return e, space
}

// Shorthands for the triple: the UDP peer is the table's last entry, from
// feeds one message from a peer, linkDown plays a driver's link event.
func udpAt(e *Engine) int { return len(e.peers) - 1 }

func from(e *Engine, p int, r msg.Req, now time.Time) { e.From(p, []msg.Req{r}, now) }

func linkDown(e *Engine, name string, now time.Time) {
	from(e, e.driver(name), msg.Req{Op: msg.OpLinkEvent}, now)
}

// sendUDP asks the engine, as the UDP peer, to transmit a payload.
func sendUDP(t *testing.T, e *Engine, space *shm.Space, id uint64) {
	t.Helper()
	pool, err := space.NewPool("t.hdr", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ptr, buf, _ := pool.Alloc()
	uh := netpkt.UDPHeader{SrcPort: 1000, DstPort: 2000, Length: 8}
	uh.Marshal(buf)
	r := msg.Req{ID: id, Op: msg.OpIPSend}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, 8)})
	r.Arg[0] = uint64(netpkt.ProtoUDP)
	r.Arg[1] = uint64(selfIP.U32())
	r.Arg[2] = uint64(peerIP.U32())
	from(e, udpAt(e), r, time.Now())
}

// arpReplyFor builds the peer's ARP reply in an RX-style buffer.
func deliverARPReply(t *testing.T, e *Engine, space *shm.Space) {
	t.Helper()
	pool, err := space.NewPool("rx.sim", 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	ptr, buf, _ := pool.Alloc()
	eh := netpkt.EthHeader{Dst: selfM, Src: peerM, Type: netpkt.EtherTypeARP}
	eh.Marshal(buf)
	ap := netpkt.ARPPacket{
		Op: netpkt.ARPReply, SenderMAC: peerM, SenderIP: peerIP,
		TargetMAC: selfM, TargetIP: selfIP,
	}
	ap.Marshal(buf[netpkt.EthHeaderLen:])
	r := msg.Req{Op: msg.OpRxPacket}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, netpkt.EthHeaderLen+netpkt.ARPLen)})
	from(e, e.driver("eth0"), r, time.Now())
}

func TestSendTriggersARPThenTransmits(t *testing.T) {
	e, space := newEngine(t, false)
	sendUDP(t, e, space, 77)

	// First output: an ARP request (packet parked awaiting resolution).
	out := e.Drain(e.driver("eth0"))
	if len(out) != 1 || out[0].Op != msg.OpTxSubmit {
		t.Fatalf("out = %+v", out)
	}
	frame, err := netpkt.Resolve(space, out[0].Chain())
	if err != nil {
		t.Fatal(err)
	}
	eh, _ := netpkt.ParseEth(frame.Bytes())
	if eh.Type != netpkt.EtherTypeARP || eh.Dst != netpkt.Broadcast {
		t.Fatalf("expected broadcast ARP, got %+v", eh)
	}
	if e.Stats().ARPRequests != 1 {
		t.Fatal("ARP request not counted")
	}

	// Peer replies: the parked packet goes out with the learned MAC.
	deliverARPReply(t, e, space)
	out = e.Drain(e.driver("eth0"))
	var data *msg.Req
	for i := range out {
		if out[i].Op == msg.OpTxSubmit {
			data = &out[i]
		}
	}
	if data == nil {
		t.Fatalf("no data frame after ARP resolution: %+v", out)
	}
	frame, _ = netpkt.Resolve(space, data.Chain())
	flat := frame.Bytes()
	eh, _ = netpkt.ParseEth(flat)
	if eh.Dst != peerM || eh.Type != netpkt.EtherTypeIPv4 {
		t.Fatalf("frame eth = %+v", eh)
	}
	ih, err := netpkt.ParseIPv4(flat[netpkt.EthHeaderLen:], true)
	if err != nil || ih.Dst != peerIP || ih.Proto != netpkt.ProtoUDP {
		t.Fatalf("frame ip = %+v, %v", ih, err)
	}

	// Driver completion flows back to the transport.
	from(e, e.driver("eth0"), msg.Req{ID: data.ID, Op: msg.OpTxDone, Status: msg.StatusOK}, time.Now())
	reps := e.Drain(udpAt(e))
	if len(reps) != 1 || reps[0].ID != 77 || reps[0].Op != msg.OpIPSendDone {
		t.Fatalf("transport reply = %+v", reps)
	}
}

func TestNoRouteFailsSend(t *testing.T) {
	e, space := newEngine(t, false)
	pool, _ := space.NewPool("t.hdr", 64, 8)
	ptr, _, _ := pool.Alloc()
	r := msg.Req{ID: 5, Op: msg.OpIPSend}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, 8)})
	r.Arg[0] = uint64(netpkt.ProtoUDP)
	r.Arg[2] = uint64(netpkt.MustIP("99.99.99.99").U32()) // no route, no GW
	from(e, udpAt(e), r, time.Now())
	reps := e.Drain(udpAt(e))
	if len(reps) != 1 || reps[0].Status == msg.StatusOK {
		t.Fatalf("reps = %+v", reps)
	}
	if e.Stats().DropsNoRoute != 1 {
		t.Fatal("no-route drop not counted")
	}
	if n := e.hdrPool.InUse(); n != 0 {
		t.Fatalf("%d header chunks held after the refusal", n)
	}
}

func TestPFJunctionBlockFailsSend(t *testing.T) {
	e, space := newEngine(t, true)
	sendUDP(t, e, space, 9)
	queries := e.Drain(e.pfAt)
	if len(queries) != 1 || queries[0].Op != msg.OpPFQuery || queries[0].Arg[0] != 1 {
		t.Fatalf("queries = %+v", queries)
	}
	// Verdict: block.
	from(e, e.pfAt, msg.Req{ID: queries[0].ID, Op: msg.OpPFVerdict, Status: 1}, time.Now())
	reps := e.Drain(udpAt(e))
	if len(reps) != 1 || reps[0].Status != msg.StatusErrBlocked {
		t.Fatalf("reps = %+v", reps)
	}
	if e.Stats().Blocked != 1 {
		t.Fatal("block not counted")
	}
	// Nothing reached the driver.
	if out := e.Drain(e.driver("eth0")); len(out) != 0 {
		t.Fatalf("driver got %+v despite block", out)
	}
}

func TestPFCrashResubmitsQueries(t *testing.T) {
	e, space := newEngine(t, true)
	sendUDP(t, e, space, 11)
	q1 := e.Drain(e.pfAt)
	if len(q1) != 1 {
		t.Fatal("no query")
	}
	// PF crashes before answering: the query must be resubmitted with a
	// fresh ID ("without packet loss").
	e.Restart(e.pfAt, time.Now())
	q2 := e.Drain(e.pfAt)
	if len(q2) != 1 {
		t.Fatalf("resubmission = %+v", q2)
	}
	if q2[0].ID == q1[0].ID {
		t.Fatal("resubmitted query reused the old ID")
	}
	if e.Stats().PFResubmitted != 1 {
		t.Fatal("resubmission not counted")
	}
	// A late verdict for the dead incarnation's ID is ignored.
	from(e, e.pfAt, msg.Req{ID: q1[0].ID, Op: msg.OpPFVerdict, Status: 0}, time.Now())
	if out := e.Drain(e.driver("eth0")); len(out) != 0 {
		t.Fatalf("stale verdict produced output: %+v", out)
	}
}

func TestICMPEchoAnswered(t *testing.T) {
	e, space := newEngine(t, false)
	// Learn the peer's MAC first so the reply goes straight out.
	deliverARPReply(t, e, space)
	e.Drain(e.driver("eth0"))

	// Deliver an echo request.
	pool, _ := space.NewPool("rx2", 2048, 4)
	ptr, buf, _ := pool.Alloc()
	eh := netpkt.EthHeader{Dst: selfM, Src: peerM, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(buf)
	payload := []byte("ping!")
	icmpLen := netpkt.ICMPHeaderLen + len(payload)
	ih := netpkt.IPv4Header{
		TotalLen: uint16(netpkt.IPv4HeaderLen + icmpLen), TTL: 64,
		Proto: netpkt.ProtoICMP, Src: peerIP, Dst: selfIP,
	}
	ih.Marshal(buf[netpkt.EthHeaderLen:], true)
	icmp := buf[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:]
	copy(icmp[netpkt.ICMPHeaderLen:], payload)
	echo := netpkt.ICMPEcho{Type: netpkt.ICMPEchoRequest, ID: 7, Seq: 3}
	echo.Marshal(icmp, len(payload))
	r := msg.Req{Op: msg.OpRxPacket}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, uint32(netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+icmpLen))})
	from(e, e.driver("eth0"), r, time.Now())

	var reply *msg.Req
	for _, out := range e.Drain(e.driver("eth0")) {
		if out.Op == msg.OpTxSubmit {
			out := out
			reply = &out
		}
	}
	if reply == nil {
		t.Fatal("no echo reply emitted")
	}
	frame, _ := netpkt.Resolve(space, reply.Chain())
	flat := frame.Bytes()
	ih2, err := netpkt.ParseIPv4(flat[netpkt.EthHeaderLen:], true)
	if err != nil || ih2.Proto != netpkt.ProtoICMP || ih2.Dst != peerIP {
		t.Fatalf("reply ip = %+v, %v", ih2, err)
	}
	ic, err := netpkt.ParseICMPEcho(flat[netpkt.EthHeaderLen+ih2.HeaderLen:])
	if err != nil || ic.Type != netpkt.ICMPEchoReply || ic.ID != 7 || ic.Seq != 3 {
		t.Fatalf("reply icmp = %+v, %v", ic, err)
	}
	if e.Stats().ICMPEchoes != 1 {
		t.Fatal("echo not counted")
	}
}

func TestMalformedPacketsDropped(t *testing.T) {
	e, space := newEngine(t, false)
	pool, _ := space.NewPool("rx3", 2048, 8)

	// Truncated IP header.
	ptr, buf, _ := pool.Alloc()
	eh := netpkt.EthHeader{Dst: selfM, Src: peerM, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(buf)
	r := msg.Req{Op: msg.OpRxPacket}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, netpkt.EthHeaderLen+6)})
	from(e, e.driver("eth0"), r, time.Now())

	// Bad checksum (not offload-verified).
	ptr2, buf2, _ := pool.Alloc()
	eh.Marshal(buf2)
	ih := netpkt.IPv4Header{TotalLen: 20, TTL: 64, Proto: netpkt.ProtoTCP, Src: peerIP, Dst: selfIP}
	ih.Marshal(buf2[netpkt.EthHeaderLen:], true)
	buf2[netpkt.EthHeaderLen+8] ^= 0xff
	r2 := msg.Req{Op: msg.OpRxPacket}
	r2.SetChain([]shm.RichPtr{ptr2.Slice(0, netpkt.EthHeaderLen+netpkt.IPv4HeaderLen)})
	from(e, e.driver("eth0"), r2, time.Now())

	if e.Stats().DropsMalformed != 2 {
		t.Fatalf("malformed drops = %d, want 2", e.Stats().DropsMalformed)
	}
	// Buffers were recycled: resupply messages went to the driver.
	resupplies := 0
	for _, out := range e.Drain(e.driver("eth0")) {
		if out.Op == msg.OpRxSupply {
			resupplies++
		}
	}
	if resupplies < 2 {
		t.Fatalf("resupplies = %d", resupplies)
	}
}

func TestSupplyDriverTopsUp(t *testing.T) {
	e, _ := newEngine(t, false)
	e.SupplyDriver("eth0")
	out := e.Drain(e.driver("eth0"))
	supplies := 0
	for _, r := range out {
		if r.Op == msg.OpRxSupply {
			supplies++
		}
	}
	if supplies != RxBufsPerDriver {
		t.Fatalf("supplies = %d, want %d", supplies, RxBufsPerDriver)
	}
	// After a driver restart the full complement is resupplied.
	e.Restart(e.driver("eth0"), time.Now())
	out = e.Drain(e.driver("eth0"))
	supplies = 0
	for _, r := range out {
		if r.Op == msg.OpRxSupply {
			supplies++
		}
	}
	if supplies != RxBufsPerDriver {
		t.Fatalf("post-restart supplies = %d", supplies)
	}
}

func TestSaveRestoreConfig(t *testing.T) {
	e, _ := newMultiEngine(t)
	blob := e.SaveState()
	e2, _ := newEngine(t, false)
	linkDown(e2, "eth0", time.Now())
	if err := e2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e2.cfg.Ifaces, e.cfg.Ifaces) || !reflect.DeepEqual(e2.Peers(), e.Peers()) {
		t.Fatalf("restored %+v with peers %+v, want %+v with %+v", e2.cfg.Ifaces, e2.Peers(), e.cfg.Ifaces, e.Peers())
	}
	// What the driver taught the engine outlives the restore.
	if ifc := e2.drv[0].ifc; ifc.mac != selfM || ifc.linkUp {
		t.Fatalf("eth0 after restore: mac %v, link up %v; want the learned MAC and the link still down", ifc.mac, ifc.linkUp)
	}
	// A blob cut anywhere is a decode error that leaves the old
	// configuration in place.
	for n := 0; n < len(blob); n++ {
		if err := e2.RestoreState(blob[:n]); err == nil || len(e2.drv) != 3 || e2.LocalIP() != e.LocalIP() {
			t.Fatalf("prefix %d/%d: RestoreState = %v, %d interfaces, first %v", n, len(blob), err, len(e2.drv), e2.LocalIP())
		}
	}
	if err := e2.RestoreState([]byte{0xff}); err == nil {
		t.Fatal("garbage blob accepted")
	}
}

// FuzzRestoreState: any outcome but a panic or a hang is fine, and what
// does restore saves back to the same bytes.
func FuzzRestoreState(f *testing.F) {
	space := shm.NewSpace()
	seed := func(ifaces []IfaceConfig) *Engine {
		e, err := New(Config{Space: space, Ifaces: ifaces})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(e.SaveState())
		return e
	}
	seed(nil)
	e := seed([]IfaceConfig{
		{Name: "eth0", IP: selfIP, MaskBits: 24},
		{Name: "eth1", IP: netpkt.MustIP("10.0.1.1"), MaskBits: 24, GW: netpkt.MustIP("10.0.1.2")},
	})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := e.RestoreState(blob); err == nil && !bytes.Equal(e.SaveState(), blob) {
			t.Fatalf("%x restored as %+v, which saves differently", blob, e.cfg.Ifaces)
		}
	})
}

// burstRig is a hubRig (peers_test.go) whose transport is slow: inbound UDP
// frames arrive through the engine's own supplied RX buffers and their
// deliveries stay parked, un-acked, holding RX chunks.
type burstRig struct {
	*hubRig
	parked []msg.Req
}

func newBurstRig(t *testing.T) *burstRig {
	return &burstRig{hubRig: newHubRig(t, 1, Config{})}
}

// deliver injects one frame into the oldest posted buffer; false means the
// device ring ran dry (the starvation growth avoids until the pool's cap).
func (r *burstRig) deliver() bool {
	r.pump()
	if len(r.posted[0]) == 0 {
		return false
	}
	r.rx(0, r.frame(0, netpkt.ProtoUDP, 1000, 2000, 0, 0, 4))
	r.parked = append(r.parked, r.e.Drain(r.udp())...)
	return true
}

// ackAll releases every parked delivery back to the engine.
func (r *burstRig) ackAll() {
	for _, d := range r.parked {
		if d.Op == msg.OpIPDeliver {
			from(r.e, r.udp(), msg.Req{ID: d.ID, Op: msg.OpIPDeliverDone}, r.now)
		}
	}
	r.parked = nil
}

// TestRxPoolStarvationIsCounted: a pool grown to its cap and exhausted by
// parked deliveries stops supplying the driver, and counts every lost
// allocation instead of swallowing ErrPoolFull, logging once per pressure
// episode.
func TestRxPoolStarvationIsCounted(t *testing.T) {
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)

	r := newBurstRig(t)
	total := RxBufsPerDriver * 8 * rxSegments
	delivered := 0
	for i := 0; i < total+64; i++ {
		if !r.deliver() {
			break
		}
		delivered++
	}
	if delivered >= total+64 {
		t.Fatal("a pool at its cap never starved the driver")
	}
	if segs := r.e.rxPool.Segments(); segs != rxSegments {
		t.Fatalf("starved at %d segments, want the cap of %d", segs, rxSegments)
	}
	st := r.e.Stats()
	if st.RxPressure == 0 {
		t.Fatal("pool exhaustion not counted in Stats.RxPressure")
	}
	if r.e.RxPressure("eth0") != st.RxPressure {
		t.Fatalf("per-iface pressure %d != stats %d", r.e.RxPressure("eth0"), st.RxPressure)
	}
	if got := bytes.Count(logBuf.Bytes(), []byte("rx pool exhausted")); got != 1 {
		t.Fatalf("pressure episode logged %d times, want once", got)
	}
	// Relief (acks) ends the episode; renewed exhaustion logs once more.
	r.ackAll()
	r.pump()
	for i := 0; i < total+64; i++ {
		if !r.deliver() {
			break
		}
	}
	if got := bytes.Count(logBuf.Bytes(), []byte("rx pool exhausted")); got != 2 {
		t.Fatalf("second pressure episode logged %d times total, want 2", got)
	}
}

// TestIdleEngineHasNoDeadline: with its neighbours resolved an engine has
// no timer pending, so its loop sleeps until a peer rings.
func TestIdleEngineHasNoDeadline(t *testing.T) {
	r := newBurstRig(t)
	for i := 0; i < 8; i++ {
		if !r.deliver() {
			t.Fatal("driver starved")
		}
		r.ackAll()
	}
	r.pump()
	if due := r.e.Deadline(); !due.IsZero() {
		t.Fatalf("an idle engine names a deadline %v", due)
	}
}

// TestElasticRxPoolAbsorbsBurst drives a burst of twice the base complement:
// the pool grows instead of starving the driver and no pressure is counted.
// Once the deliveries are released the pool keeps its grown segments and
// names no deadline, and a second burst of the same size fits without
// growing again.
func TestElasticRxPoolAbsorbsBurst(t *testing.T) {
	r := newBurstRig(t)
	total := RxBufsPerDriver * 8 * 2 // 2x the base complement
	burst := func() {
		t.Helper()
		for i := 0; i < total; i++ {
			if !r.deliver() {
				t.Fatalf("driver starved at frame %d despite elasticity", i)
			}
		}
		if st := r.e.Stats(); st.RxPressure != 0 {
			t.Fatalf("RxPressure = %d under elastic growth", st.RxPressure)
		}
	}
	burst()
	peak := r.e.rxPool.Segments()
	if peak < 2 {
		t.Fatalf("pool did not grow: %d segments", peak)
	}
	grows, _ := r.e.rxPool.ElasticStats()
	if grows == 0 {
		t.Fatal("grow events not counted")
	}

	r.ackAll()
	r.pump()
	if got := r.e.rxPool.Segments(); got != peak {
		t.Fatalf("a drained pool went from %d to %d segments", peak, got)
	}
	if due := r.e.Deadline(); !due.IsZero() {
		t.Fatalf("a drained grown pool names a deadline %v", due)
	}
	burst()
	if again, _ := r.e.rxPool.ElasticStats(); again != grows {
		t.Fatalf("the second burst grew the pool again: %d grows, want %d", again, grows)
	}
}
