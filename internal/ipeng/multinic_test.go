package ipeng

import (
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// newMultiEngine builds an engine with eth0 (10.0.0.1/24), eth1
// (10.0.1.1/24, gw 10.0.1.2) and eth2 (10.0.2.1/24, gw 10.0.2.2).
func newMultiEngine(t *testing.T) (*Engine, *shm.Space) {
	t.Helper()
	space := shm.NewSpace()
	e, err := New(Config{
		Space: space,
		Ifaces: []IfaceConfig{
			{Name: "eth0", IP: netpkt.MustIP("10.0.0.1"), MaskBits: 24},
			{Name: "eth1", IP: netpkt.MustIP("10.0.1.1"), MaskBits: 24, GW: netpkt.MustIP("10.0.1.2")},
			{Name: "eth2", IP: netpkt.MustIP("10.0.2.1"), MaskBits: 24, GW: netpkt.MustIP("10.0.2.2")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetMAC("eth0", netpkt.MAC{0xaa, 0, 0, 0, 0, 0})
	e.SetMAC("eth1", netpkt.MAC{0xaa, 0, 0, 0, 0, 1})
	e.SetMAC("eth2", netpkt.MAC{0xaa, 0, 0, 0, 0, 2})
	return e, space
}

// TestRouteTable covers the multi-homed route table: direct subnet beats
// gateway, down links are skipped, and source-bound traffic egresses the
// binding interface.
func TestRouteTable(t *testing.T) {
	zero := netpkt.IPAddr{}
	cases := []struct {
		name     string
		dst, src netpkt.IPAddr
		down     []string
		wantIfc  string // "" = no route
		wantHop  netpkt.IPAddr
	}{
		{
			name: "direct subnet beats gateway",
			dst:  netpkt.MustIP("10.0.0.9"), src: zero,
			wantIfc: "eth0", wantHop: netpkt.MustIP("10.0.0.9"),
		},
		{
			name: "off-subnet picks first gateway",
			dst:  netpkt.MustIP("99.9.9.9"), src: zero,
			wantIfc: "eth1", wantHop: netpkt.MustIP("10.0.1.2"),
		},
		{
			name: "down direct link fails over to a live gateway",
			dst:  netpkt.MustIP("10.0.0.9"), src: zero, down: []string{"eth0"},
			wantIfc: "eth1", wantHop: netpkt.MustIP("10.0.1.2"),
		},
		{
			name: "down gateway link skipped for the next one",
			dst:  netpkt.MustIP("99.9.9.9"), src: zero, down: []string{"eth1"},
			wantIfc: "eth2", wantHop: netpkt.MustIP("10.0.2.2"),
		},
		{
			name: "source binding picks the binding interface over order",
			dst:  netpkt.MustIP("99.9.9.9"), src: netpkt.MustIP("10.0.2.1"),
			wantIfc: "eth2", wantHop: netpkt.MustIP("10.0.2.2"),
		},
		{
			name: "destination specificity beats source binding",
			dst:  netpkt.MustIP("10.0.0.9"), src: netpkt.MustIP("10.0.1.1"),
			wantIfc: "eth0", wantHop: netpkt.MustIP("10.0.0.9"),
		},
		{
			name: "direct link down, binding picks among surviving gateways",
			dst:  netpkt.MustIP("10.0.0.9"), src: netpkt.MustIP("10.0.2.1"),
			down:    []string{"eth0"},
			wantIfc: "eth2", wantHop: netpkt.MustIP("10.0.2.2"),
		},
		{
			name: "everything down means no route",
			dst:  netpkt.MustIP("10.0.0.9"), src: zero,
			down:    []string{"eth0", "eth1", "eth2"},
			wantIfc: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := newMultiEngine(t)
			now := time.Now()
			for _, d := range tc.down {
				linkDown(e, d, now)
			}
			ifc, hop, ok := e.route(tc.dst, tc.src)
			if tc.wantIfc == "" {
				if ok {
					t.Fatalf("route(%v,%v) = %s/%v, want no route", tc.dst, tc.src, ifc.cfg.Name, hop)
				}
				return
			}
			if !ok {
				t.Fatalf("route(%v,%v): no route, want %s", tc.dst, tc.src, tc.wantIfc)
			}
			if ifc.cfg.Name != tc.wantIfc || hop != tc.wantHop {
				t.Fatalf("route(%v,%v) = %s/%v, want %s/%v",
					tc.dst, tc.src, ifc.cfg.Name, hop, tc.wantIfc, tc.wantHop)
			}
		})
	}
}

// injectFrame delivers a raw Ethernet frame to the engine as if received on
// the named interface.
func injectFrame(t *testing.T, e *Engine, space *shm.Space, name string, frame []byte) {
	t.Helper()
	pool, err := space.NewPool("rx.inject."+name+time.Now().Format("150405.000000000"), 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	ptr, buf, _ := pool.Alloc()
	copy(buf, frame)
	r := msg.Req{Op: msg.OpRxPacket}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, uint32(len(frame)))})
	r.Arg[1] = msg.FlagCsumOK
	from(e, e.driver(name), r, time.Now())
}

// learnNeighbor seeds the ARP table of the named interface via a broadcast
// ARP request from the neighbor (the engine learns senders).
func learnNeighbor(t *testing.T, e *Engine, space *shm.Space, name string, ip netpkt.IPAddr, mac netpkt.MAC) {
	t.Helper()
	frame := make([]byte, netpkt.EthHeaderLen+netpkt.ARPLen)
	eh := netpkt.EthHeader{Dst: netpkt.Broadcast, Src: mac, Type: netpkt.EtherTypeARP}
	eh.Marshal(frame)
	ap := netpkt.ARPPacket{
		Op: netpkt.ARPRequest, SenderMAC: mac, SenderIP: ip,
		TargetIP: netpkt.MustIP("10.0.99.99"), // not us: learn only
	}
	ap.Marshal(frame[netpkt.EthHeaderLen:])
	injectFrame(t, e, space, name, frame)
}

// TestICMPEchoReplySourcedFromPingedAddress is the multi-homed ping
// regression: an echo arriving on eth0 but addressed to eth1's address must
// be answered FROM eth1's address (the address the echo was sent to), even
// though the reply egresses eth0.
func TestICMPEchoReplySourcedFromPingedAddress(t *testing.T) {
	e, space := newMultiEngine(t)
	peer := netpkt.MustIP("10.0.0.9")
	peerMAC := netpkt.MAC{0xbb, 0, 0, 0, 0, 9}
	learnNeighbor(t, e, space, "eth0", peer, peerMAC)
	e.Drain(e.driver("eth0")) // discard anything the learn produced

	pinged := netpkt.MustIP("10.0.1.1") // the SECOND interface's address
	payload := 16
	frame := make([]byte, netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+netpkt.ICMPHeaderLen+payload)
	eh := netpkt.EthHeader{Dst: netpkt.MAC{0xaa, 0, 0, 0, 0, 0}, Src: peerMAC, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(frame)
	ih := netpkt.IPv4Header{
		TotalLen: uint16(len(frame) - netpkt.EthHeaderLen), TTL: 64,
		Proto: netpkt.ProtoICMP, Src: peer, Dst: pinged,
	}
	ih.Marshal(frame[netpkt.EthHeaderLen:], true)
	echo := netpkt.ICMPEcho{Type: netpkt.ICMPEchoRequest, ID: 42, Seq: 7}
	echo.Marshal(frame[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:], payload)
	injectFrame(t, e, space, "eth0", frame)

	if e.Stats().ICMPEchoes != 1 {
		t.Fatalf("echo not handled: %+v", e.Stats())
	}
	out := e.Drain(e.driver("eth0"))
	var rep *msg.Req
	for i := range out {
		if out[i].Op == msg.OpTxSubmit {
			rep = &out[i]
		}
	}
	if rep == nil {
		t.Fatalf("no echo reply drained: %+v", out)
	}
	flat, err := netpkt.Resolve(space, rep.Chain())
	if err != nil {
		t.Fatal(err)
	}
	raw := flat.Bytes()
	rih, err := netpkt.ParseIPv4(raw[netpkt.EthHeaderLen:], true)
	if err != nil {
		t.Fatal(err)
	}
	if rih.Src != pinged {
		t.Fatalf("echo reply sourced from %v, want the pinged address %v", rih.Src, pinged)
	}
	if rih.Dst != peer {
		t.Fatalf("echo reply to %v, want %v", rih.Dst, peer)
	}
	ric, err := netpkt.ParseICMPEcho(raw[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:])
	if err != nil || ric.Type != netpkt.ICMPEchoReply || ric.ID != 42 || ric.Seq != 7 {
		t.Fatalf("echo reply icmp = %+v, %v", ric, err)
	}
}

// TestARPGiveUpFailsQueuedPackets: a next hop that never answers ARP must
// not retry forever — after maxARPTries the queued packets fail back to the
// transport with StatusErrNoRoute and the engine's chunks are freed.
func TestARPGiveUpFailsQueuedPackets(t *testing.T) {
	e, space := newEngine(t, false)
	now := time.Now()
	sendUDP(t, e, space, 77) // parks awaiting ARP of peerIP

	arpReqs := 0
	drainARP := func() {
		for _, r := range e.Drain(e.driver("eth0")) {
			if r.Op == msg.OpTxSubmit {
				arpReqs++
				// Complete the transmission so the ARP header chunk frees.
				from(e, e.driver("eth0"), msg.Req{ID: r.ID, Op: msg.OpTxDone, Status: msg.StatusOK}, now)
			}
		}
	}
	drainARP()
	// Each ARP timeout is the engine's deadline: stepping the clock to it
	// retries once, up to maxARPTries total, then gives up.
	for i := 0; i < maxARPTries+3; i++ {
		due := e.Deadline()
		if due.IsZero() {
			break
		}
		if !due.After(now) {
			t.Fatalf("deadline %v is not after now %v", due, now)
		}
		now = due
		e.Tick(now)
		drainARP()
	}
	if arpReqs != maxARPTries {
		t.Fatalf("sent %d ARP requests, want exactly %d", arpReqs, maxARPTries)
	}
	reps := e.Drain(udpAt(e))
	if len(reps) != 1 || reps[0].Op != msg.OpIPSendDone || reps[0].ID != 77 ||
		reps[0].Status != msg.StatusErrNoRoute {
		t.Fatalf("transport reply = %+v, want IPSendDone ErrNoRoute", reps)
	}
	if got := e.Stats().ARPFailed; got != 1 {
		t.Fatalf("ARPFailed = %d, want 1", got)
	}
	if ifc := e.drv[0].ifc; len(ifc.pending) != 0 || len(ifc.arpSent) != 0 || len(ifc.arpTries) != 0 {
		t.Fatalf("neighbor state not cleared: %+v", ifc)
	}
	if inUse := e.hdrPool.InUse(); inUse != 0 {
		t.Fatalf("%d header chunks still held after give-up", inUse)
	}
	if due := e.Deadline(); !due.IsZero() {
		t.Fatalf("Deadline = %v after the give-up, want zero", due)
	}
}

// TestLinkDownReroutesARPPending: packets parked awaiting ARP on an
// interface whose link dies must be re-routed out a surviving interface
// (here via eth1's gateway), not silently parked.
func TestLinkDownReroutesARPPending(t *testing.T) {
	e, space := newMultiEngine(t)
	now := time.Now()
	gw := netpkt.MustIP("10.0.1.2")
	gwMAC := netpkt.MAC{0xbb, 0, 0, 0, 0, 1}

	// A UDP send to eth0's subnet parks awaiting ARP on eth0.
	pool, err := space.NewPool("t.hdr", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ptr, buf, _ := pool.Alloc()
	uh := netpkt.UDPHeader{SrcPort: 1000, DstPort: 2000, Length: 8}
	uh.Marshal(buf)
	r := msg.Req{ID: 99, Op: msg.OpIPSend}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, 8)})
	r.Arg[0] = uint64(netpkt.ProtoUDP)
	r.Arg[2] = uint64(netpkt.MustIP("10.0.0.9").U32())
	from(e, udpAt(e), r, now)
	e.Drain(e.driver("eth0")) // the eth0 ARP request

	// Link dies before the neighbor answers: the packet must move.
	linkDown(e, "eth0", now)
	if got := e.Stats().Rerouted; got != 1 {
		t.Fatalf("Rerouted = %d, want 1", got)
	}
	// It now waits for the gateway's MAC on eth1.
	out := e.Drain(e.driver("eth1"))
	if len(out) != 1 || out[0].Op != msg.OpTxSubmit {
		t.Fatalf("eth1 out = %+v, want one ARP request", out)
	}
	flat, _ := netpkt.Resolve(space, out[0].Chain())
	ap, err := netpkt.ParseARP(flat.Bytes()[netpkt.EthHeaderLen:])
	if err != nil || ap.Op != netpkt.ARPRequest || ap.TargetIP != gw {
		t.Fatalf("eth1 frame = %+v, %v; want ARP who-has %v", ap, err, gw)
	}

	// Gateway answers: the data frame leaves eth1, IP dst unchanged.
	learnNeighbor(t, e, space, "eth1", gw, gwMAC)
	out = e.Drain(e.driver("eth1"))
	var data *msg.Req
	for i := range out {
		if out[i].Op == msg.OpTxSubmit {
			data = &out[i]
		}
	}
	if data == nil {
		t.Fatalf("no data frame on eth1 after gateway resolution: %+v", out)
	}
	flat, _ = netpkt.Resolve(space, data.Chain())
	raw := flat.Bytes()
	eh, _ := netpkt.ParseEth(raw)
	if eh.Dst != gwMAC {
		t.Fatalf("rerouted frame eth dst = %v, want gateway %v", eh.Dst, gwMAC)
	}
	ih, err := netpkt.ParseIPv4(raw[netpkt.EthHeaderLen:], true)
	if err != nil || ih.Dst != netpkt.MustIP("10.0.0.9") {
		t.Fatalf("rerouted frame ip = %+v, %v", ih, err)
	}
}

// TestRerouteRepassesPFJunction: a packet re-routed off a dead interface
// must pass the outbound filter again for its NEW egress interface — its
// earlier verdict was for the dead one, and per-interface policy may
// differ (blocking here means the reroute is a policy decision, not a
// bypass).
func TestRerouteRepassesPFJunction(t *testing.T) {
	space := shm.NewSpace()
	e, err := New(Config{
		Space: space,
		Ifaces: []IfaceConfig{
			{Name: "eth0", IP: netpkt.MustIP("10.0.0.1"), MaskBits: 24},
			{Name: "eth1", IP: netpkt.MustIP("10.0.1.1"), MaskBits: 24, GW: netpkt.MustIP("10.0.1.2")},
		},
		PFEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetMAC("eth0", netpkt.MAC{0xaa, 0, 0, 0, 0, 0})
	e.SetMAC("eth1", netpkt.MAC{0xaa, 0, 0, 0, 0, 1})
	now := time.Now()

	pool, _ := space.NewPool("t.hdr", 64, 8)
	ptr, buf, _ := pool.Alloc()
	uh := netpkt.UDPHeader{SrcPort: 1000, DstPort: 2000, Length: 8}
	uh.Marshal(buf)
	r := msg.Req{ID: 42, Op: msg.OpIPSend}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, 8)})
	r.Arg[0] = uint64(netpkt.ProtoUDP)
	r.Arg[2] = uint64(netpkt.MustIP("10.0.0.9").U32())
	from(e, udpAt(e), r, now)

	// First verdict query is for eth0; pass it — the packet then parks
	// awaiting ARP on eth0.
	qs := e.Drain(e.pfAt)
	if len(qs) != 1 || msg.UnpackIfaceName(qs[0].Arg[1]) != "eth0" {
		t.Fatalf("first query = %+v, want one for eth0", qs)
	}
	from(e, e.pfAt, msg.Req{ID: qs[0].ID, Op: msg.OpPFVerdict, Status: 0}, now)
	e.Drain(e.driver("eth0")) // its ARP request

	// The link dies: the reroute must re-consult PF for eth1.
	linkDown(e, "eth0", now)
	qs = e.Drain(e.pfAt)
	if len(qs) != 1 || msg.UnpackIfaceName(qs[0].Arg[1]) != "eth1" {
		t.Fatalf("reroute query = %+v, want one for eth1", qs)
	}
	// eth1 policy blocks it: the transport hears Blocked, nothing egresses.
	from(e, e.pfAt, msg.Req{ID: qs[0].ID, Op: msg.OpPFVerdict, Status: 1}, now)
	if out := e.Drain(e.driver("eth1")); len(out) != 0 {
		t.Fatalf("blocked reroute still egressed: %+v", out)
	}
	reps := e.Drain(udpAt(e))
	if len(reps) != 1 || reps[0].ID != 42 || reps[0].Status != msg.StatusErrBlocked {
		t.Fatalf("transport reply = %+v, want Blocked", reps)
	}
}

// TestLinkDownWithoutAlternativeFailsPending: with no surviving route the
// parked packets fail back to the transport instead of leaking.
func TestLinkDownWithoutAlternativeFailsPending(t *testing.T) {
	e, space := newEngine(t, false)
	sendUDP(t, e, space, 55)
	e.Drain(e.driver("eth0"))
	linkDown(e, "eth0", time.Now())
	reps := e.Drain(udpAt(e))
	if len(reps) != 1 || reps[0].ID != 55 || reps[0].Status != msg.StatusErrNoRoute {
		t.Fatalf("reply = %+v, want IPSendDone ErrNoRoute", reps)
	}
	if e.Stats().DropsNoRoute == 0 || e.Stats().LinkDowns != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

// TestWeakHostAcceptsSecondAddressOnOtherNIC: traffic addressed to one
// interface's address but arriving on another is still delivered (weak host
// model) — failover depends on it.
func TestWeakHostAcceptsSecondAddressOnOtherNIC(t *testing.T) {
	e, space := newMultiEngine(t)
	frame := make([]byte, netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+netpkt.UDPHeaderLen+4)
	eh := netpkt.EthHeader{Dst: netpkt.MAC{0xaa, 0, 0, 0, 0, 0}, Src: netpkt.MAC{0xbb, 9, 9, 9, 9, 9}, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(frame)
	ih := netpkt.IPv4Header{
		TotalLen: uint16(len(frame) - netpkt.EthHeaderLen), TTL: 64,
		Proto: netpkt.ProtoUDP, Src: netpkt.MustIP("10.0.0.9"),
		Dst: netpkt.MustIP("10.0.1.1"), // eth1's address...
	}
	ih.Marshal(frame[netpkt.EthHeaderLen:], true)
	uh := netpkt.UDPHeader{SrcPort: 1, DstPort: 2, Length: netpkt.UDPHeaderLen + 4}
	uh.Marshal(frame[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:])
	injectFrame(t, e, space, "eth0", frame) // ...delivered on eth0

	out := e.Drain(udpAt(e))
	if len(out) != 1 || out[0].Op != msg.OpIPDeliver {
		t.Fatalf("UDP deliveries = %+v, want the weak-host datagram", out)
	}
	if got := netpkt.IPFromU32(uint32(out[0].Arg[2])); got != netpkt.MustIP("10.0.1.1") {
		t.Fatalf("delivered dst = %v, want the addressed IP", got)
	}
}
