package udpsrv

import (
	"strings"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/proc"
	"newtos/internal/transport"
	"newtos/internal/wiring"
)

// A two-interface host: 10.0.0.1/24 on the first, 10.0.1.1/24 on the second.
var (
	firstIP  = netpkt.IPAddr{10, 0, 0, 1}
	secondIP = netpkt.IPAddr{10, 0, 1, 1}
)

func srcFor(dst netpkt.IPAddr) netpkt.IPAddr {
	if dst.InSubnet(secondIP, 24) {
		return secondIP
	}
	return firstIP
}

// rig runs the UDP server between a silent IP and a scripted SYSCALL server.
type rig struct {
	t     *testing.T
	hub   *wiring.Hub
	ports *wiring.Ports
	bell  *channel.Doorbell
	front *wiring.Edge
	srv   *Server
	now   time.Time
	calls uint64
}

func newRig(t *testing.T) *rig {
	t.Helper()
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	r := &rig{t: t, hub: hub, ports: wiring.NewPorts(hub, "udp"), bell: channel.NewDoorbell(), now: time.Unix(0, 0)}
	ip := wiring.NewPorts(hub, "ip")
	ip.Begin(channel.NewDoorbell())
	ip.Export("ip-udp", "udp")
	sc := wiring.NewPorts(hub, "sc")
	sc.Begin(channel.NewDoorbell())
	r.front = wiring.NewEdge(sc.Export("sc-udp", "udp"))
	r.srv = r.start(nil)
	return r
}

func (r *rig) start(handoff any) *Server {
	r.t.Helper()
	s := New(Config{LocalIP: firstIP, SrcFor: srcFor, Offload: true}, r.ports)
	if err := s.Init(&proc.Runtime{Bell: r.bell, Incarnation: 1, Handoff: handoff}, false); err != nil {
		r.t.Fatal(err)
	}
	return s
}

// call plays one blocking socket call from the SYSCALL server.
func (r *rig) call(req msg.Req) msg.Req {
	r.t.Helper()
	var rep []msg.Req
	collect := func(b []msg.Req) { rep = append(rep, b...) }
	r.front.Intake(nil, collect) // adopt the edge before staging onto it
	r.calls++
	req.ID = r.calls
	r.front.Push(req)
	r.front.Flush()
	for i := 0; i < 3 && len(rep) == 0; i++ {
		r.now = r.now.Add(time.Millisecond)
		r.srv.Poll(r.now)
		r.front.Intake(nil, collect)
	}
	if len(rep) != 1 || rep[0].ID != req.ID || rep[0].Status != msg.StatusOK {
		r.t.Fatalf("%v: replies %+v", req.Op, rep)
	}
	return rep[0]
}

// connectedSocket creates a UDP socket connected to dst:53.
func (r *rig) connectedSocket(dst netpkt.IPAddr) uint32 {
	flow := r.call(msg.Req{Op: msg.OpSockCreate}).Flow
	conn := msg.Req{Op: msg.OpSockConnect, Flow: flow}
	conn.Arg[0], conn.Arg[1] = uint64(dst.U32()), 53
	r.call(conn)
	return flow
}

// TestPersistedFlowNamesTheInterfaceUsed: on a multi-homed host a socket
// connected towards the second subnet sends from the second interface's
// address, and the flow PF rebuilds its conntrack from must say so —
// stamping the node's first address made the rebuilt entry match nothing.
func TestPersistedFlowNamesTheInterfaceUsed(t *testing.T) {
	r := newRig(t)
	r.connectedSocket(netpkt.IPAddr{10, 0, 1, 2})

	blob, ok := r.hub.Store.Get(FlowsKey)
	if !ok {
		t.Fatal("no flows persisted")
	}
	flows, err := pfeng.DecodeFlows(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Src != secondIP || flows[0].Proto != netpkt.ProtoUDP || flows[0].DstPort != 53 {
		t.Fatalf("persisted flows = %+v, want one UDP flow from %v", flows, secondIP)
	}
}

// TestHandoffWithMissingBufferHandleFailsInit: the engine blob says the
// socket has a TX buffer; a payload that lost the handle must be refused by
// the successor's Init, not adopted into a server that panics on first use.
func TestHandoffWithMissingBufferHandleFailsInit(t *testing.T) {
	r := newRig(t)
	flow := r.connectedSocket(netpkt.IPAddr{10, 0, 0, 2})
	state, err := r.srv.HandoffState()
	if err != nil {
		t.Fatal(err)
	}
	if succ := r.start(state); succ.Engine().NumSockets() != 1 {
		t.Fatalf("intact payload restored %d sockets, want 1", succ.Engine().NumSockets())
	}

	delete(state.(*transport.Payload).Handles.SockBufs, flow)
	s := New(Config{LocalIP: firstIP}, r.ports)
	err = s.Init(&proc.Runtime{Bell: r.bell, Incarnation: 2, Handoff: state}, false)
	if err == nil || !strings.Contains(err.Error(), "missing TX buffer handle") {
		t.Fatalf("Init = %v, want a missing-handle error", err)
	}
}
