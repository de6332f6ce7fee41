package ipsrv

import (
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/faults"
	"newtos/internal/ipeng"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/proc"
	"newtos/internal/shm"
	"newtos/internal/wiring"
)

// fakePeer plays one neighbouring component on its "ip-<name>" edge.
type fakePeer struct {
	ports *wiring.Ports
	end   *wiring.Edge
	got   []msg.Req // requests received by this incarnation
}

func newFakePeer(hub *wiring.Hub, name string) *fakePeer {
	p := &fakePeer{ports: wiring.NewPorts(hub, name)}
	p.reincarnate()
	return p
}

func (p *fakePeer) reincarnate() {
	p.ports.Begin(channel.NewDoorbell())
	p.end = wiring.NewEdge(p.ports.Attach("ip-" + p.ports.Name()))
	p.got = nil
}

func (p *fakePeer) drain() {
	p.end.Intake(make([]msg.Req, wiring.ScratchLen), nil, func(b []msg.Req) {
		p.got = append(p.got, b...)
	})
}

func (p *fakePeer) send(now time.Time, reqs ...msg.Req) {
	p.end.Push(reqs...)
	p.end.Flush()
}

func (p *fakePeer) count(op msg.Op) int {
	n := 0
	for _, r := range p.got {
		if r.Op == op {
			n++
		}
	}
	return n
}

// rig is an IP server with every neighbour it exports an edge to played by
// a fakePeer.
type rig struct {
	srv   *Server
	peers map[string]*fakePeer
	now   time.Time
}

func newRig(t *testing.T, cfg Config, names ...string) *rig {
	t.Helper()
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	r := &rig{srv: New(cfg, wiring.NewPorts(hub, "ip")), peers: map[string]*fakePeer{}, now: time.Unix(0, 0)}
	rt := &proc.Runtime{Bell: channel.NewDoorbell(), Fault: faults.NewPoint("ip", nil), Incarnation: 1}
	if err := r.srv.Init(rt, false); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		r.peers[n] = newFakePeer(hub, n)
	}
	return r
}

func (r *rig) poll() {
	for i := 0; i < 3; i++ {
		r.now = r.now.Add(time.Millisecond)
		r.srv.Poll(r.now)
		for _, p := range r.peers {
			p.drain()
		}
	}
}

var twoNICs = []ipeng.IfaceConfig{
	{Name: "eth0", IP: netpkt.IPAddr{10, 0, 0, 1}, MaskBits: 24},
	{Name: "eth1", IP: netpkt.IPAddr{10, 0, 1, 1}, MaskBits: 24},
}

// TestDriverRestartRecoversOnlyThatDriver: IP keeps one edge per peer, and
// a peer's reincarnation runs that peer's recovery exactly once — a
// restarted driver is handed a fresh receive complement, its sibling is
// left alone.
func TestDriverRestartRecoversOnlyThatDriver(t *testing.T) {
	r := newRig(t, Config{Ifaces: twoNICs, Offload: true}, "eth0", "eth1")
	eth0, eth1 := r.peers["eth0"], r.peers["eth1"]
	r.poll()
	if a, b := eth0.count(msg.OpRxSupply), eth1.count(msg.OpRxSupply); a != ipeng.RxBufsPerDriver || b != ipeng.RxBufsPerDriver {
		t.Fatalf("after wiring: eth0 got %d buffers, eth1 %d, want %d each", a, b, ipeng.RxBufsPerDriver)
	}

	eth0.reincarnate()
	r.poll()
	if got := eth0.count(msg.OpRxSupply); got != ipeng.RxBufsPerDriver {
		t.Fatalf("restarted eth0 got %d buffers, want a fresh complement of %d", got, ipeng.RxBufsPerDriver)
	}
	if got := eth1.count(msg.OpRxSupply); got != ipeng.RxBufsPerDriver {
		t.Fatalf("eth1 got %d buffers in total; its sibling's restart must not resupply it", got)
	}
	if got := r.srv.OutboxDropped(); got != 0 {
		t.Fatalf("OutboxDropped = %d with nothing staged across the restart", got)
	}
}

// TestEdgesAreThePeerTable: the shell exports exactly one edge per entry of
// the engine's peer table, in table order and under the component names the
// neighbours attach by, and calls the engine with the index of the edge a
// batch came in on: what each neighbour sends is answered on its own edge,
// and what the engine has for it arrives there and nowhere else.
func TestEdgesAreThePeerTable(t *testing.T) {
	names := []string{"eth0", "eth1", "pf", "tcp", "udp"}
	r := newRig(t, Config{Ifaces: twoNICs, PFEnabled: true}, names...)
	peers := r.srv.Engine().Peers()
	if len(r.srv.edges) != len(peers) || len(peers) != len(names) {
		t.Fatalf("%d edges for %d peers, want %d of each", len(r.srv.edges), len(peers), len(names))
	}
	for i, want := range []ipeng.Peer{
		{Kind: ipeng.PeerDriver, Name: "eth0"}, {Kind: ipeng.PeerDriver, Name: "eth1"},
		{Kind: ipeng.PeerPF, Name: "pf"},
		{Kind: ipeng.PeerTCP, Name: "tcp"},
		{Kind: ipeng.PeerUDP, Name: "udp"},
	} {
		if peers[i] != want {
			t.Fatalf("peer %d = %+v, want %+v", i, peers[i], want)
		}
	}
	r.poll()
	for _, d := range names[:2] {
		if got := r.peers[d].count(msg.OpRxSupply); got != ipeng.RxBufsPerDriver {
			t.Fatalf("%s was supplied %d buffers, want %d", d, got, ipeng.RxBufsPerDriver)
		}
	}

	// A transport's header chunk for the sends below.
	pool, err := r.srv.ports.Hub().Space.NewPool("t.hdr", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, _ := pool.Alloc()
	send := func(id uint64, dst netpkt.IPAddr) msg.Req {
		req := msg.Req{ID: id, Op: msg.OpIPSend}
		req.SetChain([]shm.RichPtr{hdr.Slice(0, 8)})
		req.Arg[2] = uint64(dst.U32())
		return req
	}
	// UDP sends towards eth1's subnet: PF is asked about eth1, and once
	// it passes the packet, eth1 — not eth0 — is handed the ARP request.
	r.peers["udp"].send(r.now, send(7, netpkt.IPAddr{10, 0, 1, 9}))
	r.poll()
	pf := r.peers["pf"]
	if len(pf.got) != 1 || pf.got[0].Op != msg.OpPFQuery || msg.UnpackIfaceName(pf.got[0].Arg[1]) != "eth1" {
		t.Fatalf("pf got %+v, want one query about eth1", pf.got)
	}
	pf.send(r.now, msg.Req{ID: pf.got[0].ID, Op: msg.OpPFVerdict})
	r.poll()
	if a, b := r.peers["eth0"].count(msg.OpTxSubmit), r.peers["eth1"].count(msg.OpTxSubmit); a != 0 || b != 1 {
		t.Fatalf("eth0 got %d frames and eth1 %d, want 0 and 1", a, b)
	}
	// TCP sends where no route leads: the failure comes back to TCP, and
	// UDP hears nothing.
	tcp, udp := r.peers["tcp"], r.peers["udp"]
	udpGot := len(udp.got)
	tcp.send(r.now, send(9, netpkt.IPAddr{99, 9, 9, 9}))
	r.poll()
	if len(udp.got) != udpGot || len(tcp.got) != 1 || tcp.got[0].ID != 9 || tcp.got[0].Status != msg.StatusErrNoRoute {
		t.Fatalf("udp got %+v, tcp got %+v, want only tcp to hear ErrNoRoute for request 9", udp.got[udpGot:], tcp.got)
	}
}
