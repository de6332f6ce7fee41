package ipeng

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// hubRig plays every neighbour of one engine: each driver's ring (the
// buffers the engine supplied, consumed FIFO), a PF that passes whatever it
// is asked about, and transports that take deliveries and sit on them.
type hubRig struct {
	t      testing.TB
	e      *Engine
	space  *shm.Space
	now    time.Time
	posted [][]shm.RichPtr // per driver, in table order
	tcpHdr shm.RichPtr     // the transports' side of an OpIPSend
	tcpPay shm.RichPtr
}

const rigMSS = 1460

// newHubRig builds an engine with nics interfaces (eth<i> = 10.0.<i>.1/24,
// neighbour 10.0.<i>.2 already resolved) and posts every driver its
// receive complement.
func newHubRig(t testing.TB, nics int, cfg Config) *hubRig {
	t.Helper()
	r := &hubRig{t: t, space: shm.NewSpace(), now: time.Unix(1_000_000, 0)}
	cfg.Space = r.space
	for i := 0; i < nics; i++ {
		cfg.Ifaces = append(cfg.Ifaces, IfaceConfig{Name: fmt.Sprintf("eth%d", i), IP: netpkt.IPAddr{10, 0, byte(i), 1}, MaskBits: 24})
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.e = e
	r.posted = make([][]shm.RichPtr, nics)
	hdrPool, err := r.space.NewPool("t.hdr", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	payPool, err := r.space.NewPool("t.pay", 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	hp, hb, _ := hdrPool.Alloc()
	pp, _, _ := payPool.Alloc()
	th := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Flags: netpkt.TCPAck, Window: 65535}
	th.Marshal(hb)
	r.tcpHdr, r.tcpPay = hp.Slice(0, netpkt.TCPHeaderLen), pp.Slice(0, rigMSS)
	for i := 0; i < nics; i++ {
		e.SetMAC(cfg.Ifaces[i].Name, netpkt.MAC{0xaa, 0, 0, 0, 0, byte(i)})
		// The driver's edge comes up: IP supplies its receive complement.
		e.Restart(i, r.now)
		r.pump()
		// The neighbour announces itself, as the first packet of any
		// workload makes it do.
		frame := make([]byte, netpkt.EthHeaderLen+netpkt.ARPLen)
		eh := netpkt.EthHeader{Dst: netpkt.Broadcast, Src: r.neighMAC(i), Type: netpkt.EtherTypeARP}
		eh.Marshal(frame)
		ap := netpkt.ARPPacket{Op: netpkt.ARPRequest, SenderMAC: r.neighMAC(i), SenderIP: r.neigh(i)}
		ap.Marshal(frame[netpkt.EthHeaderLen:])
		r.rx(i, frame)
	}
	r.pump()
	return r
}

func (r *hubRig) neigh(i int) netpkt.IPAddr { return netpkt.IPAddr{10, 0, byte(i), 2} }
func (r *hubRig) neighMAC(i int) netpkt.MAC { return netpkt.MAC{0xbb, 0, 0, 0, 0, byte(i)} }
func (r *hubRig) udp() int                  { return udpAt(r.e) }
func (r *hubRig) tcp() int                  { return r.e.tcpAt }

// pump is the housekeeping half of a loop iteration: tick, and let every
// driver post the buffers it was supplied.
func (r *hubRig) pump() {
	r.e.Tick(r.now)
	for d := range r.posted {
		kept := r.e.peers[d].out[:0]
		for _, req := range r.e.peers[d].out {
			if req.Op == msg.OpRxSupply {
				r.posted[d] = append(r.posted[d], req.Ptrs[0])
			} else {
				kept = append(kept, req)
			}
		}
		r.e.peers[d].out = kept
	}
}

// frame builds an inbound IPv4 frame for driver d from its neighbour.
func (r *hubRig) frame(d int, proto uint8, srcPort, dstPort uint16, seq uint32, flags uint8, payload int) []byte {
	l4Len := netpkt.UDPHeaderLen
	if proto == netpkt.ProtoTCP {
		l4Len = netpkt.TCPHeaderLen
	}
	f := make([]byte, netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+l4Len+payload)
	eh := netpkt.EthHeader{Dst: r.e.drv[d].ifc.mac, Src: r.neighMAC(d), Type: netpkt.EtherTypeIPv4}
	eh.Marshal(f)
	ih := netpkt.IPv4Header{
		TotalLen: uint16(len(f) - netpkt.EthHeaderLen), TTL: 64,
		Proto: proto, Src: r.neigh(d), Dst: r.e.drv[d].ifc.cfg.IP,
	}
	ih.Marshal(f[netpkt.EthHeaderLen:], true)
	l4 := f[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:]
	if proto == netpkt.ProtoTCP {
		th := netpkt.TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Flags: flags, Window: 65535}
		th.Marshal(l4)
	} else {
		uh := netpkt.UDPHeader{SrcPort: srcPort, DstPort: dstPort, Length: uint16(l4Len + payload)}
		uh.Marshal(l4)
	}
	return f
}

// rxReq places a frame in driver d's oldest posted buffer and returns the
// OpRxPacket announcing it.
func (r *hubRig) rxReq(d int, frame []byte) msg.Req {
	if len(r.posted[d]) == 0 {
		r.t.Fatalf("driver %d has no posted buffer", d)
	}
	buf := r.posted[d][0]
	r.posted[d] = r.posted[d][1:]
	view, err := r.space.View(buf)
	if err != nil {
		r.t.Fatal(err)
	}
	copy(view, frame)
	req := msg.Req{Op: msg.OpRxPacket, NPtr: 1}
	req.Ptrs[0] = buf.Slice(0, uint32(len(frame)))
	req.Arg[0], req.Arg[1] = uint64(len(frame)), msg.FlagCsumOK
	return req
}

func (r *hubRig) rx(d int, frame []byte) { from(r.e, d, r.rxReq(d, frame), r.now) }

// pass answers every pending PF query with "pass" and returns how many
// there were.
func (r *hubRig) pass() int {
	qs := r.e.Drain(r.e.pfAt)
	for i := range qs {
		qs[i] = msg.Req{ID: qs[i].ID, Op: msg.OpPFVerdict}
	}
	r.e.From(r.e.pfAt, qs, r.now)
	return len(qs)
}

// ipSendReq is a transport's request to transmit one MSS-sized payload to
// driver d's neighbour.
func (r *hubRig) ipSendReq(d int, id uint64) msg.Req {
	req := msg.Req{ID: id, Op: msg.OpIPSend, NPtr: 2}
	req.Ptrs[0], req.Ptrs[1] = r.tcpHdr, r.tcpPay
	req.Arg[1], req.Arg[2] = uint64(r.e.drv[d].ifc.cfg.IP.U32()), uint64(r.neigh(d).U32())
	req.Arg[3] = msg.OffloadCsumL4
	return req
}

// TestPFRestartTwiceBeforeVerdictLosesNothing: "a PF crash loses no
// packets" must hold however often PF crashes. An inbound packet whose
// query is outstanding when PF restarts, and whose resubmitted query is
// outstanding when PF restarts again, is still delivered once the third
// incarnation answers, and its receive buffer comes home afterwards.
func TestPFRestartTwiceBeforeVerdictLosesNothing(t *testing.T) {
	r := newHubRig(t, 1, Config{PFEnabled: true})
	baseline := r.e.rxPool.InUse()

	r.rx(0, r.frame(0, netpkt.ProtoUDP, 1000, 2000, 0, 0, 4))
	if q := r.e.Drain(r.e.pfAt); len(q) != 1 || q[0].Arg[0] != 0 {
		t.Fatalf("queries = %+v, want one inbound query", q)
	}
	r.e.Restart(r.e.pfAt, r.now)
	if q := r.e.Drain(r.e.pfAt); len(q) != 1 {
		t.Fatalf("after the first restart: %d queries resubmitted, want 1", len(q))
	}
	r.e.Restart(r.e.pfAt, r.now)
	if n := r.pass(); n != 1 {
		t.Fatalf("after the second restart: %d queries resubmitted, want 1", n)
	}
	if got := r.e.Stats().PFResubmitted; got != 2 {
		t.Fatalf("PFResubmitted = %d, want 2", got)
	}
	ds := r.e.Drain(r.udp())
	if len(ds) != 1 || ds[0].Op != msg.OpIPDeliver {
		t.Fatalf("deliveries = %+v, want the datagram", ds)
	}
	from(r.e, r.udp(), msg.Req{ID: ds[0].ID, Op: msg.OpIPDeliverDone}, r.now)
	r.pump()
	if got := r.e.rxPool.InUse(); got != baseline {
		t.Fatalf("rx chunks in use = %d, want the baseline %d back", got, baseline)
	}
	if r.e.db.Len() != 0 {
		t.Fatalf("%d requests still tracked", r.e.db.Len())
	}
}

// TestRestartTouchesOnlyThatPeer: whatever kind of neighbour restarts, the
// engine aborts exactly that peer's scope — its frames resubmitted and its
// receive complement supplied afresh (a driver), its queries asked again
// (PF), its deliveries' buffers recycled (a transport) — and every other
// peer's in-flight work and output queue stay exactly as they were.
func TestRestartTouchesOnlyThatPeer(t *testing.T) {
	// Every peer of a 2-NIC, PF engine gets work in flight and something
	// waiting in its output queue.
	build := func(t *testing.T) *hubRig {
		r := newHubRig(t, 2, Config{PFEnabled: true})
		for d := 0; d < 2; d++ {
			// Outbound: a datagram's and a segment's frame with each driver.
			from(r.e, r.udp(), r.ipSendReq(d, uint64(100+d)), r.now)
			from(r.e, r.tcp(), r.ipSendReq(d, uint64(200+d)), r.now)
			// Inbound on each NIC: a datagram and a lone (SYN) segment,
			// both parked with their transports.
			r.rx(d, r.frame(d, netpkt.ProtoUDP, 1000, 2000, 0, 0, 4))
			r.rx(d, r.frame(d, netpkt.ProtoTCP, 40000, 9000, 1, netpkt.TCPSyn, 0))
			r.pass()
		}
		// TCP also has a run still open in its GRO slot, and PF one more
		// inbound query to answer.
		r.rx(1, r.frame(1, netpkt.ProtoTCP, 40001, 9000, 2, netpkt.TCPAck, 100))
		r.rx(1, r.frame(1, netpkt.ProtoTCP, 40001, 9000, 102, netpkt.TCPAck, 100))
		r.pass()
		r.rx(0, r.frame(0, netpkt.ProtoUDP, 1000, 2000, 0, 0, 4))
		r.pump() // drivers back at their full complement
		return r
	}
	type state struct {
		pending int
		out     []msg.Req
	}
	snapshot := func(r *hubRig) []state {
		var s []state
		for i := range r.e.peers {
			p := &r.e.peers[i]
			s = append(s, state{r.e.db.PendingTo(p.scope), append([]msg.Req(nil), p.out...)})
		}
		return s
	}

	rows := []struct {
		name string
		peer Peer
		// check inspects the restarted peer itself.
		check func(t *testing.T, r *hubRig, p int, before, after state, stats0 Stats, inUse0 int)
	}{
		{"driver", Peer{Kind: PeerDriver, Name: "eth1"},
			func(t *testing.T, r *hubRig, p int, before, after state, stats0 Stats, _ int) {
				if got := r.e.Stats().TxResubmitted - stats0.TxResubmitted; got != uint64(before.pending) || after.pending != before.pending {
					t.Fatalf("%d of %d frames resubmitted, %d tracked afterwards", got, before.pending, after.pending)
				}
				supplies := 0
				for _, q := range after.out[len(before.out):] {
					if q.Op == msg.OpRxSupply {
						supplies++
					}
				}
				if supplies != RxBufsPerDriver {
					t.Fatalf("restarted driver supplied %d buffers, want a fresh complement of %d", supplies, RxBufsPerDriver)
				}
			}},
		{"pf", Peer{Kind: PeerPF, Name: "pf"},
			func(t *testing.T, r *hubRig, p int, before, after state, stats0 Stats, _ int) {
				if got := r.e.Stats().PFResubmitted - stats0.PFResubmitted; got != uint64(before.pending) || after.pending != before.pending {
					t.Fatalf("%d of %d queries resubmitted, %d tracked afterwards", got, before.pending, after.pending)
				}
			}},
		{"tcp", Peer{Kind: PeerTCP, Name: "tcp"},
			func(t *testing.T, r *hubRig, p int, before, after state, _ Stats, inUse0 int) {
				// Two parked segments and the two of the open GRO run.
				if got := inUse0 - r.e.rxPool.InUse(); after.pending != 0 || got != before.pending+2 || r.e.peers[p].gro.head != nil {
					t.Fatalf("%d deliveries still tracked, %d buffers recycled (want %d), gro run %v",
						after.pending, got, before.pending+2, r.e.peers[p].gro.head)
				}
			}},
		{"udp", Peer{Kind: PeerUDP, Name: "udp"},
			func(t *testing.T, r *hubRig, p int, before, after state, _ Stats, inUse0 int) {
				if got := inUse0 - r.e.rxPool.InUse(); after.pending != 0 || got != before.pending {
					t.Fatalf("%d deliveries still tracked, %d buffers recycled (want %d)", after.pending, got, before.pending)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := build(t)
			p := -1
			for i, pr := range r.e.Peers() {
				if pr == row.peer {
					p = i
				}
			}
			if p < 0 {
				t.Fatalf("no %+v in %+v", row.peer, r.e.Peers())
			}
			before, stats0, inUse0 := snapshot(r), r.e.Stats(), r.e.rxPool.InUse()
			for i, s := range before {
				if s.pending == 0 || len(s.out) == 0 {
					t.Fatalf("rig left peer %d (%+v) with %d in flight and %d queued; every peer needs both", i, r.e.Peers()[i], s.pending, len(s.out))
				}
			}
			var ids []uint64
			r.e.db.Each(func(id uint64, dest string, _ any) {
				if dest == r.e.peers[p].scope {
					ids = append(ids, id)
				}
			})

			r.e.Restart(p, r.now)

			for _, id := range ids {
				if _, ok := r.e.db.Lookup(id); ok {
					t.Fatalf("request %d to the dead incarnation survived its restart", id)
				}
			}
			after := snapshot(r)
			for i := range after {
				if i == p {
					continue
				}
				if after[i].pending != before[i].pending || len(after[i].out) != len(before[i].out) {
					t.Fatalf("restart of %+v touched %+v: in flight %d -> %d, queued %d -> %d", row.peer, r.e.Peers()[i],
						before[i].pending, after[i].pending, len(before[i].out), len(after[i].out))
				}
				for j := range after[i].out {
					if after[i].out[j] != before[i].out[j] {
						t.Fatalf("restart of %+v rewrote %+v's queue at %d", row.peer, r.e.Peers()[i], j)
					}
				}
			}
			row.check(t, r, p, before[p], after[p], stats0, inUse0)
		})
	}
}

// TestBatchAllocationCeiling guards the per-packet allocation residue of
// the flagship shape (bench/layers/ip.go: 32 full-size TCP segments per
// batch, PF junction on): one batch out — transport, verdicts, driver,
// completions — and one batch of in-order segments in — driver, verdicts,
// GRO, transport, buffers released. The ceilings are exactly what remains:
// per packet an outPkt and its payload chain going out, an inPkt coming in.
// Tracking a request builds no scope string and no closure (the design
// before measured 242 and 88), and the output queues reuse their arrays
// (82 and 40 while each Drain left its queue to grow from empty). They are
// a guard, not a claim.
func TestBatchAllocationCeiling(t *testing.T) {
	const batch = 32
	r := newHubRig(t, 1, Config{PFEnabled: true, Offload: true})
	sends := make([]msg.Req, batch)
	var id uint64
	tx := func() {
		for i := range sends {
			id++
			sends[i] = r.ipSendReq(0, id)
		}
		r.e.From(r.tcp(), sends, r.now)
		r.pass()
		out := r.e.Drain(0)
		for i := range out {
			out[i] = msg.Req{ID: out[i].ID, Op: msg.OpTxDone}
		}
		r.e.From(0, out, r.now)
		if done := r.e.Drain(r.tcp()); len(done) != batch {
			t.Fatalf("%d of %d sends completed", len(done), batch)
		}
	}
	segs := make([][]byte, batch)
	for i := range segs {
		segs[i] = r.frame(0, netpkt.ProtoTCP, 40000, 9000, uint32(i*rigMSS), netpkt.TCPAck, rigMSS)
	}
	frames := make([]msg.Req, batch)
	rx := func() {
		for i := range frames {
			frames[i] = r.rxReq(0, segs[i])
		}
		r.e.From(0, frames, r.now)
		r.pass()
		ds := r.e.Drain(r.tcp())
		segs := 0
		for i := range ds {
			segs += int(ds[i].Arg[3])
			ds[i] = msg.Req{ID: ds[i].ID, Op: msg.OpIPDeliverDone}
		}
		if segs != batch {
			t.Fatalf("%d of %d segments delivered", segs, batch)
		}
		r.e.From(r.tcp(), ds, r.now)
		r.pump()
	}
	for _, c := range []struct {
		name    string
		run     func()
		ceiling float64
	}{
		{"tx", tx, 2 * batch},
		{"rx", rx, batch},
	} {
		// Reach steady state: both arrays of every queue and the request
		// table grown.
		c.run()
		c.run()
		got := testing.AllocsPerRun(20, c.run)
		t.Logf("%s: %.1f allocations per %d-segment batch", c.name, got, batch)
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocations per %d-segment batch, ceiling %.0f", c.name, got, batch, c.ceiling)
		}
	}
}

// TestDrainedBatchOutlivesNewOutput: a drained batch stays as it was until
// the next Drain of the same peer, whatever the engine queues for that peer
// meanwhile; callers feed a drained batch back into the engine while still
// reading it.
func TestDrainedBatchOutlivesNewOutput(t *testing.T) {
	r := newHubRig(t, 1, Config{Offload: true})
	var id uint64
	send := func() {
		id++
		r.e.From(r.tcp(), []msg.Req{r.ipSendReq(0, id)}, r.now)
	}
	for round := 0; round < 3; round++ { // past the first swap of the two arrays
		send()
		first := r.e.Drain(0)
		want := slices.Clone(first)
		send()
		if len(first) == 0 || !slices.Equal(first, want) {
			t.Fatalf("round %d: drained %+v became %+v when the engine queued more", round, want, first)
		}
		second := r.e.Drain(0)
		if len(second) != len(want) || second[0].ID == want[0].ID {
			t.Fatalf("round %d: second drain %+v, first %+v", round, second, want)
		}
	}
}

// TestGRORefusesSegmentsWithOptions: a merged run keeps only its lead
// segment's TCP header and hands the rest over payload-only, so a data
// segment that carries options — SACK blocks, on a connection sending both
// ways — must neither join a run (its blocks would vanish) nor lead one (its
// blocks would be read as the whole run's). It travels alone, in order.
func TestGRORefusesSegmentsWithOptions(t *testing.T) {
	r := newHubRig(t, 1, Config{})
	const pay = 100
	seg := func(i int, withSACK bool) []byte {
		th := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Seq: uint32(1000 + pay*i), Ack: 77, Flags: netpkt.TCPAck, Window: 65535}
		if withSACK {
			th.NSACK, th.SACK[0] = 1, netpkt.SACKBlock{Start: 500, End: 600}
		}
		f := r.frame(0, netpkt.ProtoTCP, 40000, 9000, 0, 0, th.MarshalLen()-netpkt.TCPHeaderLen+pay)
		th.Marshal(f[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:])
		return f
	}
	for i, withSACK := range []bool{false, false, true, true, false, false} {
		r.rx(0, seg(i, withSACK))
	}
	var got []uint64
	for _, d := range r.e.Drain(r.tcp()) {
		if d.Op != msg.OpIPDeliver {
			t.Fatalf("unexpected %v towards TCP", d.Op)
		}
		got = append(got, max(d.Arg[3], 1))
	}
	if want := []uint64{2, 1, 1, 2}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("segments per delivery %v, want %v: plain pairs merge, each segment with options goes alone", got, want)
	}
}
