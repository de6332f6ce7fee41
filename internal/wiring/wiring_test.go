package wiring

import (
	"testing"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/storage"
)

func newHub() *Hub { return NewHub(kipc.New(kipc.Config{})) }

func TestExportAttachBasicFlow(t *testing.T) {
	hub := newHub()
	ipPorts := NewPorts(hub, "ip")
	tcpPorts := NewPorts(hub, "tcp")

	// tcp comes up first, announces its bell, attaches the edge.
	tcpBell := channel.NewDoorbell()
	tcpPorts.Begin(tcpBell)
	tcpSide := tcpPorts.Attach("ip-tcp")

	// ip comes up, announces, exports.
	ipBell := channel.NewDoorbell()
	ipPorts.Begin(ipBell)
	ipSide := ipPorts.Export("ip-tcp", "tcp")

	ipDup, changed := ipSide.Take()
	if !changed || !ipDup.Valid() {
		t.Fatal("creator side not wired")
	}
	tcpDup, changed := tcpSide.Take()
	if !changed || !tcpDup.Valid() {
		t.Fatal("attacher side not wired")
	}

	// Traffic flows both ways.
	if !ipDup.Out.Send(msg.Req{ID: 1, Op: msg.OpIPDeliver}) {
		t.Fatal("send failed")
	}
	r, ok := tcpDup.In.Recv()
	if !ok || r.Op != msg.OpIPDeliver {
		t.Fatalf("recv = %+v %v", r, ok)
	}
	tcpDup.Out.Send(r.Reply(msg.OpIPDeliverDone, 0))
	rep, ok := ipDup.In.Recv()
	if !ok || rep.ID != 1 {
		t.Fatalf("reply = %+v %v", rep, ok)
	}
	// No further changes reported.
	if _, changed := ipSide.Take(); changed {
		t.Fatal("spurious change")
	}
}

func TestOrderIndependence(t *testing.T) {
	// Creator comes up before the attacher.
	hub := newHub()
	ipPorts := NewPorts(hub, "ip")
	ipPorts.Begin(channel.NewDoorbell())
	ipSide := ipPorts.Export("ip-udp", "udp")

	if _, changed := ipSide.Take(); changed {
		t.Fatal("edge wired before peer exists")
	}

	udpPorts := NewPorts(hub, "udp")
	udpPorts.Begin(channel.NewDoorbell())
	udpSide := udpPorts.Attach("ip-udp")

	if d, changed := ipSide.Take(); !changed || !d.Valid() {
		t.Fatal("creator not wired after peer announce")
	}
	if d, changed := udpSide.Take(); !changed || !d.Valid() {
		t.Fatal("attacher not wired")
	}
}

func TestPeerRestartRewiresAndSignalsChange(t *testing.T) {
	hub := newHub()
	ipPorts := NewPorts(hub, "ip")
	tcpPorts := NewPorts(hub, "tcp")
	ipPorts.Begin(channel.NewDoorbell())
	ipSide := ipPorts.Export("ip-tcp", "tcp")
	tcpPorts.Begin(channel.NewDoorbell())
	tcpSide := tcpPorts.Attach("ip-tcp")
	ipDup1, _ := ipSide.Take()
	tcpSide.Take()

	// Put a request in flight, then restart tcp.
	ipDup1.Out.Send(msg.Req{ID: 7})

	tcpPorts.Begin(channel.NewDoorbell()) // new incarnation
	tcpSide2 := tcpPorts.Attach("ip-tcp")

	ipDup2, changed := ipSide.Take()
	if !changed {
		t.Fatal("creator did not observe peer restart")
	}
	// Fresh queues: the in-flight request is gone (it is the creator's job
	// to abort/resubmit via its request database).
	if _, ok := ipDup2.In.Recv(); ok {
		t.Fatal("new channel carries stale traffic")
	}
	tcpDup2, changed := tcpSide2.Take()
	if !changed || !tcpDup2.Valid() {
		t.Fatal("new incarnation not wired")
	}
	ipDup2.Out.Send(msg.Req{ID: 8})
	if r, ok := tcpDup2.In.Recv(); !ok || r.ID != 8 {
		t.Fatal("traffic on rewired edge broken")
	}
}

func TestCreatorRestartRewires(t *testing.T) {
	hub := newHub()
	ipPorts := NewPorts(hub, "ip")
	tcpPorts := NewPorts(hub, "tcp")
	ipPorts.Begin(channel.NewDoorbell())
	ipPorts.Export("ip-tcp", "tcp")
	tcpPorts.Begin(channel.NewDoorbell())
	tcpSide := tcpPorts.Attach("ip-tcp")
	tcpSide.Take()

	// ip restarts: Begin cancels the old export subscription, the new
	// incarnation re-exports.
	ipPorts.Begin(channel.NewDoorbell())
	ipSide2 := ipPorts.Export("ip-tcp", "tcp")

	d, changed := ipSide2.Take()
	if !changed || !d.Valid() {
		t.Fatal("restarted creator not wired")
	}
	d2, changed := tcpSide.Take()
	if !changed || !d2.Valid() {
		t.Fatal("survivor did not pick up re-export")
	}
	d.Out.Send(msg.Req{ID: 9})
	if r, ok := d2.In.Recv(); !ok || r.ID != 9 {
		t.Fatal("rewired edge broken")
	}
}

func TestStaleIncarnationExportsSuppressed(t *testing.T) {
	hub := newHub()
	ipPorts := NewPorts(hub, "ip")
	tcpPorts := NewPorts(hub, "tcp")
	ipPorts.Begin(channel.NewDoorbell())
	ipPorts.Export("ip-tcp", "tcp")

	// ip incarnation 2 takes over BEFORE tcp announces.
	ipPorts.Begin(channel.NewDoorbell())
	ipSide2 := ipPorts.Export("ip-tcp", "tcp")

	tcpPorts.Begin(channel.NewDoorbell())
	tcpSide := tcpPorts.Attach("ip-tcp")

	// Exactly one channel generation must be visible (from incarnation 2's
	// subscription; incarnation 1's was cancelled by Begin).
	d, changed := tcpSide.Take()
	if !changed || !d.Valid() {
		t.Fatal("attacher not wired")
	}
	if _, changed := tcpSide.Take(); changed {
		t.Fatal("stale incarnation also exported (double wiring)")
	}
	if d2, _ := ipSide2.Take(); !d2.Valid() {
		t.Fatal("live incarnation not wired")
	}
}

func TestMultipleEdges(t *testing.T) {
	hub := newHub()
	ip := NewPorts(hub, "ip")
	ip.Begin(channel.NewDoorbell())
	eth0 := NewPorts(hub, "drv.eth0")
	eth1 := NewPorts(hub, "drv.eth1")
	p0 := ip.Export("ip-drv.eth0", "drv.eth0")
	p1 := ip.Export("ip-drv.eth1", "drv.eth1")
	eth0.Begin(channel.NewDoorbell())
	a0 := eth0.Attach("ip-drv.eth0")
	eth1.Begin(channel.NewDoorbell())
	a1 := eth1.Attach("ip-drv.eth1")

	for _, p := range []*Port{p0, p1, a0, a1} {
		if d, changed := p.Take(); !changed || !d.Valid() {
			t.Fatal("edge not wired")
		}
	}
	// Edges are independent.
	d0, _ := p0.Take()
	d0a, _ := a0.Take()
	d1a, _ := a1.Take()
	d0.Out.Send(msg.Req{ID: 55})
	if _, ok := d1a.In.Recv(); ok {
		t.Fatal("cross-edge leak")
	}
	if r, ok := d0a.In.Recv(); !ok || r.ID != 55 {
		t.Fatal("edge 0 broken")
	}
}

// TestStoreWipeRingsCurrentBell: once a component has asked StoreWiped, a
// storage crash rings the doorbell of its current incarnation, so a loop
// that polls only when rung re-parks its state in time.
func TestStoreWipeRingsCurrentBell(t *testing.T) {
	hub := newHub()
	ps := NewPorts(hub, "pf")
	old, cur := channel.NewDoorbell(), channel.NewDoorbell()
	ps.Begin(old)
	if ps.StoreWiped() {
		t.Fatal("a fresh store reported a wipe")
	}
	ps.Begin(cur) // the component reincarnates
	st := proc.New("storage", func() proc.Service { return storage.NewService(hub.Store) }, nil)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	if err := st.Restart(); err != nil {
		t.Fatal(err)
	}
	if cur.Posts() != 1 || old.Posts() != 0 {
		t.Fatalf("wipe rang the current bell %d times and the old one %d times, want 1 and 0", cur.Posts(), old.Posts())
	}
	if !ps.StoreWiped() || ps.StoreWiped() {
		t.Fatal("StoreWiped must report the wipe exactly once")
	}
}
