package syscallsrv

import (
	"slices"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/storage"
	"newtos/internal/wiring"
)

// The three doors, by the kernel endpoint name applications look up.
const (
	doorTCP = msg.TCPFrontdoor
	doorUDP = msg.UDPFrontdoor
	doorPF  = msg.PFFrontdoor
)

// pendingCalls counts the calls the server holds for a transport's reply.
func pendingCalls(s *Server) int {
	n := 0
	for _, d := range s.doors {
		n += len(d.pending)
	}
	return n
}

// transport plays one of the server's peers (TCP, UDP or PF): the
// attaching end of the server's edge towards that component.
type transport struct {
	ports *wiring.Ports
	edge  string
	end   *wiring.Edge
	got   []msg.Req
}

// reincarnate restarts the transport: its new bell makes the server export
// a fresh duplex, which advances the server's port generation.
func (p *transport) reincarnate() {
	p.ports.Begin(channel.NewDoorbell())
	p.end = wiring.NewEdge(p.ports.Attach(p.edge))
	p.got = nil
}

// drain collects what the server delivered to this incarnation.
func (p *transport) drain() {
	p.end.Intake(nil, func(b []msg.Req) {
		p.got = append(p.got, b...)
	})
}

// take returns what arrived since the last take.
func (p *transport) take() []msg.Req {
	got := p.got
	p.got = nil
	return got
}

// delivery is one kernel message an application received.
type delivery struct {
	door string // which door sent it
	req  msg.Req
}

// app is one application process: a kernel endpoint and what landed on it.
type app struct {
	ep  *kipc.Endpoint
	got []delivery
}

func (a *app) take() []delivery {
	got := a.got
	a.got = nil
	return got
}

type rig struct {
	t     *testing.T
	hub   *wiring.Hub
	ports *wiring.Ports // the server's, stable across its incarnations
	srv   *Server
	now   time.Time
	peers map[string]*transport // by component name
	apps  []*app
}

// newRig boots a SYSCALL server over fake transports: TCP, UDP and PF.
func newRig(t *testing.T) *rig {
	r := &rig{
		t: t, hub: wiring.NewHub(kipc.New(kipc.Config{})), now: time.Unix(1000, 0),
		peers: map[string]*transport{},
	}
	r.ports = wiring.NewPorts(r.hub, "sc")
	r.boot(false)
	t.Cleanup(func() { r.srv.Stop() })
	r.attach("tcp", "sc-tcp")
	r.attach("udp", "sc-udp")
	r.attach("pf", "sc-pf")
	r.poll() // every edge's first rebind is wiring, not a restart to recover from
	return r
}

// boot starts an incarnation of the server with all three doors; the one
// before it, if any, is abandoned the way a crash abandons it.
func (r *rig) boot(restart bool) {
	r.srv = New(r.ports, TCP(), UDP(), PF())
	if err := r.srv.Init(&proc.Runtime{Bell: channel.NewDoorbell(), Incarnation: 1}, restart); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) attach(name, edge string) {
	p := &transport{ports: wiring.NewPorts(r.hub, name), edge: edge}
	p.reincarnate()
	r.peers[name] = p
}

func (r *rig) newApp(name string) *app {
	ep, err := r.hub.Kern.Register("app/"+name, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(ep.Close)
	a := &app{ep: ep}
	r.apps = append(r.apps, a)
	return a
}

// poll runs one server iteration, then the applications take what it
// queued to them and the transports drain.
func (r *rig) poll() {
	r.now = r.now.Add(time.Millisecond)
	r.srv.Poll(r.now)
	for _, a := range r.apps {
		r.receive(a)
	}
	for _, p := range r.peers {
		p.drain()
	}
}

// receive takes every message queued to a, noting the door it came from.
func (r *rig) receive(a *app) {
	for {
		m, err := a.ep.TryReceive()
		if err != nil {
			return
		}
		d := delivery{req: m.Req}
		for _, door := range []string{doorTCP, doorUDP, doorPF} {
			if id, ok := r.hub.Kern.Lookup(door); ok && id == m.From {
				d.door = door
			}
		}
		a.got = append(a.got, d)
	}
}

// send queues one application call to a door.
func (r *rig) send(a *app, door string, req msg.Req) {
	r.t.Helper()
	dst, ok := r.hub.Kern.Lookup(door)
	if !ok {
		r.t.Fatalf("no %s endpoint", door)
	}
	if err := a.ep.Send(dst, kipc.Msg{Req: req}); err != nil {
		r.t.Fatalf("send to %s: %v", door, err)
	}
}

// call sends one application call through a door and polls the server once:
// the forward is then with the transport.
func (r *rig) call(a *app, door string, req msg.Req) {
	r.t.Helper()
	r.send(a, door, req)
	r.poll()
}

// answer has a transport send requests (replies, events) and the server
// relay them.
func (r *rig) answer(p *transport, reqs ...msg.Req) {
	p.end.Push(reqs...)
	p.end.Flush()
	r.poll()
}

// forwarded is the one request of that op the transport got since the last
// take; anything else fails the test.
func (r *rig) forwarded(p *transport, op msg.Op) msg.Req {
	r.t.Helper()
	got := p.take()
	if len(got) != 1 || got[0].Op != op {
		r.t.Fatalf("transport %s got %v, want one %v", p.ports.Name(), got, op)
	}
	return got[0]
}

// replied is the one message the application got since the last take.
func (r *rig) replied(a *app, door string) msg.Req {
	r.t.Helper()
	got := a.take()
	if len(got) != 1 || got[0].door != door {
		r.t.Fatalf("app got %+v, want one message from %s", got, door)
	}
	return got[0].req
}

func (r *rig) silent(a *app) {
	r.t.Helper()
	if got := a.take(); len(got) != 0 {
		r.t.Fatalf("app got %+v, want nothing", got)
	}
}

func flags(flow uint32) msg.Req {
	r := msg.Req{Op: msg.OpSockSetFlags, Flow: flow}
	r.Arg[0] = msg.SockNonblock
	return r
}

func event(flow uint32, bits uint64) msg.Req {
	r := msg.Req{Op: msg.OpSockEvent, Flow: flow}
	r.Arg[0] = bits
	return r
}

// subscribe puts flow in nonblocking mode on a door's behalf and completes
// the call, so nothing stays pending.
func (r *rig) subscribe(a *app, door string, p *transport, flow uint32) {
	r.t.Helper()
	r.call(a, door, flags(flow))
	fwd := r.forwarded(p, msg.OpSockSetFlags)
	r.answer(p, fwd.Reply(msg.OpSockReply, msg.StatusOK))
	r.replied(a, door)
}

// TestDoor scripts the door contract over real ports, queues and kernel
// endpoints with fake transports behind them.
func TestDoor(t *testing.T) {
	doors := []struct {
		door, peer string
		op         msg.Op
	}{{doorTCP, "tcp", msg.OpSockBind}, {doorUDP, "udp", msg.OpSockBind}, {doorPF, "pf", msg.OpPFStats}}

	t.Run("a reply comes back under the caller's id, once", func(t *testing.T) {
		r := newRig(t)
		a := r.newApp("a")
		for _, d := range doors {
			p := r.peers[d.peer]
			r.call(a, d.door, msg.Req{ID: 77, Op: d.op, Flow: 5})
			fwd := r.forwarded(p, d.op)
			if fwd.Flow != 5 || fwd.ID == 77 {
				t.Fatalf("%s forwarded %+v", d.door, fwd)
			}
			rep := fwd.Reply(msg.OpSockReply, msg.StatusErrInUse)
			r.answer(p, rep)
			if got := r.replied(a, d.door); got.ID != 77 || got.Status != msg.StatusErrInUse || got.Flow != 5 {
				t.Fatalf("%s reply = %+v", d.door, got)
			}
			r.answer(p, rep) // the same reply again matches nothing
			r.silent(a)
		}
		if n := pendingCalls(r.srv); n != 0 {
			t.Fatalf("%d calls still pending", n)
		}
	})

	t.Run("a chain longer than MaxPtrs is refused with EINVAL", func(t *testing.T) {
		r := newRig(t)
		a := r.newApp("a")
		for _, d := range doors {
			p := r.peers[d.peer]
			r.call(a, d.door, msg.Req{ID: 21, Op: d.op, Flow: 5, NPtr: msg.MaxPtrs + 1})
			if got := r.replied(a, d.door); got.ID != 21 || got.Op != msg.OpSockReply || got.Status != msg.StatusErrInval || got.Flow != 5 {
				t.Fatalf("%s answered %+v", d.door, got)
			}
			if got := p.take(); len(got) != 0 {
				t.Fatalf("%s forwarded %v", d.door, got)
			}
			r.call(a, d.door, msg.Req{ID: 22, Op: d.op, Flow: 5, NPtr: msg.MaxPtrs}) // a full chain is fine
			if fwd := r.forwarded(p, d.op); fwd.NPtr != msg.MaxPtrs {
				t.Fatalf("%s forwarded %+v", d.door, fwd)
			}
			r.silent(a)
		}
	})

	t.Run("recv-done is forwarded and forgotten", func(t *testing.T) {
		r := newRig(t)
		a := r.newApp("a")
		r.call(a, doorTCP, msg.Req{ID: 3, Op: msg.OpSockRecvDone, Flow: 5})
		r.call(a, doorUDP, msg.Req{ID: 4, Op: msg.OpSockRecvDone, Flow: 5})
		r.forwarded(r.peers["tcp"], msg.OpSockRecvDone)
		r.forwarded(r.peers["udp"], msg.OpSockRecvDone)
		if n := pendingCalls(r.srv); n != 0 {
			t.Fatalf("%d calls pending after fire-and-forget ops", n)
		}
	})

	t.Run("an event reaches its subscriber only, and nobody after close", func(t *testing.T) {
		r := newRig(t)
		a, b := r.newApp("a"), r.newApp("b")
		tcp, udp := r.peers["tcp"], r.peers["udp"]
		r.subscribe(a, doorTCP, tcp, 5) // the transports' socket ids overlap
		r.subscribe(b, doorUDP, udp, 5)

		r.answer(tcp, event(5, msg.EvReadable))
		if ev := r.replied(a, doorTCP); ev.Op != msg.OpSockEvent || ev.Flow != 5 || ev.Arg[0] != msg.EvReadable {
			t.Fatalf("event = %+v", ev)
		}
		r.silent(b)
		r.answer(udp, event(5, msg.EvWritable))
		if ev := r.replied(b, doorUDP); ev.Op != msg.OpSockEvent || ev.Arg[0] != msg.EvWritable {
			t.Fatalf("event = %+v", ev)
		}
		r.silent(a)
		r.answer(tcp, event(6, msg.EvReadable)) // nobody armed socket 6
		r.silent(a)
		r.silent(b)

		r.call(a, doorTCP, msg.Req{ID: 9, Op: msg.OpSockClose, Flow: 5})
		r.answer(tcp, event(5, msg.EvReadable))
		r.silent(a)
		r.answer(udp, event(5, msg.EvReadable)) // UDP's socket 5 is still open
		r.replied(b, doorUDP)
	})

	// A transport reincarnates between two polls with calls in flight.
	restarts := []struct {
		door, peer string
		poke       uint64
	}{
		{doorTCP, "tcp", msg.EvError | msg.EvReadable | msg.EvWritable | msg.EvAcceptReady},
		{doorUDP, "udp", msg.EvReadable | msg.EvWritable},
	}
	for _, d := range restarts {
		t.Run("restart of "+d.peer+" aborts calls, reissues recv and accept, re-arms subscribers", func(t *testing.T) {
			r := newRig(t)
			a, b := r.newApp("a"), r.newApp("b")
			p := r.peers[d.peer]
			r.subscribe(a, d.door, p, 5)
			r.call(a, d.door, msg.Req{ID: 10, Op: msg.OpSockSend, Flow: 5})
			r.call(a, d.door, msg.Req{ID: 11, Op: msg.OpSockRecv, Flow: 5})
			r.call(b, d.door, msg.Req{ID: 12, Op: msg.OpSockAccept, Flow: 6})
			// A call through another door is not this transport's.
			other, otherPeer := doorUDP, r.peers["udp"]
			if d.door == doorUDP {
				other, otherPeer = doorTCP, r.peers["tcp"]
			}
			r.call(b, other, msg.Req{ID: 13, Op: msg.OpSockSend, Flow: 5})
			p.take()

			p.reincarnate()
			r.poll()

			got := a.take()
			if len(got) != 2 {
				t.Fatalf("app a got %+v, want the abort and the poke", got)
			}
			for _, g := range got {
				switch g.req.Op {
				case msg.OpSockReply:
					if g.req.ID != 10 || g.req.Status != msg.StatusErrAborted || g.door != d.door {
						t.Fatalf("abort = %+v", g)
					}
				case msg.OpSockEvent:
					if g.req.Flow != 5 || g.req.Arg[0] != d.poke || g.door != d.door {
						t.Fatalf("poke = %+v, want bits %#x", g, d.poke)
					}
				default:
					t.Fatalf("app a got %+v", g)
				}
			}
			r.silent(b) // its accept was reissued, its other call is alive

			var ops []msg.Op
			reissued := map[msg.Op]msg.Req{}
			for _, q := range p.take() {
				ops = append(ops, q.Op)
				reissued[q.Op] = q
			}
			slices.Sort(ops)
			if want := []msg.Op{msg.OpSockAccept, msg.OpSockRecv, msg.OpSockSetFlags}; !slices.Equal(ops, want) {
				t.Fatalf("new incarnation got %v, want %v once each", ops, want)
			}
			if sf := reissued[msg.OpSockSetFlags]; sf.Flow != 5 || sf.Arg[0] != msg.SockNonblock {
				t.Fatalf("mode bits re-pushed as %+v", sf)
			}
			r.poll() // nothing is reissued twice
			if extra := p.take(); len(extra) != 0 {
				t.Fatalf("a second poll sent %v", extra)
			}

			rec := reissued[msg.OpSockRecv]
			r.answer(p, rec.Reply(msg.OpSockRecvData, msg.StatusOK))
			if rep := r.replied(a, d.door); rep.ID != 11 || rep.Op != msg.OpSockRecvData {
				t.Fatalf("reissued recv completed as %+v", rep)
			}
			fwd := r.forwarded(otherPeer, msg.OpSockSend)
			r.answer(otherPeer, fwd.Reply(msg.OpSockReply, msg.StatusOK))
			if rep := r.replied(b, other); rep.ID != 13 || rep.Status != msg.StatusOK {
				t.Fatalf("the other door's call completed as %+v", rep)
			}
		})
	}

	t.Run("restart of pf aborts the control call in flight", func(t *testing.T) {
		r := newRig(t)
		a := r.newApp("a")
		r.call(a, doorPF, msg.Req{ID: 40, Op: msg.OpPFRuleAdd})
		r.peers["pf"].reincarnate()
		r.poll()
		if rep := r.replied(a, doorPF); rep.ID != 40 || rep.Status != msg.StatusErrAborted {
			t.Fatalf("control call ended as %+v", rep)
		}
		if n := pendingCalls(r.srv); n != 0 {
			t.Fatalf("%d calls leaked in the pending table", n)
		}
	})

	t.Run("the server's own restart keeps the subscriptions", func(t *testing.T) {
		r := newRig(t)
		a, b := r.newApp("a"), r.newApp("b")
		tcp, udp := r.peers["tcp"], r.peers["udp"]
		r.subscribe(a, doorTCP, tcp, 5)
		r.subscribe(b, doorUDP, udp, 5)
		r.subscribe(b, doorUDP, udp, 6)
		r.call(b, doorUDP, msg.Req{ID: 9, Op: msg.OpSockClose, Flow: 6})
		udp.take()

		r.boot(true) // a crash: nobody stopped the old incarnation
		r.poll()     // fresh edges: the first poll recovers every peer
		if sf := r.forwarded(tcp, msg.OpSockSetFlags); sf.Flow != 5 || sf.Arg[0] != msg.SockNonblock {
			t.Fatalf("TCP mode bits re-pushed as %+v", sf)
		}
		if sf := r.forwarded(udp, msg.OpSockSetFlags); sf.Flow != 5 {
			t.Fatalf("UDP mode bits re-pushed as %+v (socket 6 was closed)", sf)
		}
		if ev := r.replied(a, doorTCP); ev.Op != msg.OpSockEvent || ev.Flow != 5 || ev.Arg[0]&msg.EvError == 0 {
			t.Fatalf("TCP subscriber poked with %+v", ev)
		}
		if ev := r.replied(b, doorUDP); ev.Op != msg.OpSockEvent || ev.Flow != 5 || ev.Arg[0] != msg.EvReadable|msg.EvWritable {
			t.Fatalf("UDP subscriber poked with %+v", ev)
		}
		r.answer(udp, event(5, msg.EvReadable)) // and events route again
		if ev := r.replied(b, doorUDP); ev.Arg[0] != msg.EvReadable {
			t.Fatalf("event after the restart = %+v", ev)
		}
		r.silent(a)

		// A storage crash takes the parked tables; the next poll parks them again.
		storage.NewService(r.hub.Store).Init(nil, true)
		if _, ok := r.hub.Store.Get(UDP().StateKey()); ok {
			t.Fatal("storage not wiped")
		}
		r.poll()
		r.boot(true)
		r.poll()
		r.forwarded(udp, msg.OpSockSetFlags)
		r.replied(b, doorUDP)
	})
}

// TestReplyNeverWaitsForTheApplication: a door sends replies and events to
// an application that never receives, and every Poll still returns; what it
// sent waits on the application's endpoint, in order.
func TestReplyNeverWaitsForTheApplication(t *testing.T) {
	r := newRig(t)
	ep, err := r.hub.Kern.Register("app/deaf", nil) // not in r.apps: nobody receives
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	deaf := &app{ep: ep}
	tcp := r.peers["tcp"]
	pollWithin := func(what string) {
		t.Helper()
		r.now = r.now.Add(time.Millisecond)
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.srv.Poll(r.now)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Poll relaying %s did not return: it waits for the application", what)
		}
		tcp.drain()
	}

	r.send(deaf, doorTCP, flags(5))
	pollWithin("nothing")
	fwd := r.forwarded(tcp, msg.OpSockSetFlags)
	tcp.end.Push(fwd.Reply(msg.OpSockReply, msg.StatusOK))
	tcp.end.Flush()
	pollWithin("a reply")
	const events = 100
	for i := 1; i <= events; i++ {
		tcp.end.Push(event(5, uint64(i)))
		tcp.end.Flush()
		pollWithin("an event")
	}

	r.receive(deaf)
	got := deaf.take()
	if len(got) != 1+events || got[0].req.Op != msg.OpSockReply || got[0].req.ID != flags(5).ID {
		t.Fatalf("the application holds %d messages, first %+v; want the reply and %d events", len(got), got[0], events)
	}
	for i, g := range got[1:] {
		if g.req.Op != msg.OpSockEvent || g.req.Arg[0] != uint64(i+1) || g.door != doorTCP {
			t.Fatalf("message %d is %+v, want event %d from the TCP door", i+1, g, i+1)
		}
	}
}

// TestDoorRoundTripAllocatesNothing: one call through a door and its reply
// back — application Send, door Poll, peer reply, door Poll, application
// TryReceive — allocates nothing: a kernel message is a msg.Req, copied by
// value into the receiver's queue.
func TestDoorRoundTripAllocatesNothing(t *testing.T) {
	r := newRig(t)
	a := r.newApp("a")
	tcp := r.peers["tcp"]
	dst, _ := r.hub.Kern.Lookup(doorTCP)
	var fwd []msg.Req
	take := func(b []msg.Req) { fwd = append(fwd[:0], b...) }
	roundTrip := func() {
		if err := a.ep.Send(dst, kipc.Msg{Req: msg.Req{ID: 7, Op: msg.OpSockSend, Flow: 5}}); err != nil {
			t.Fatal(err)
		}
		r.srv.Poll(r.now)
		tcp.end.Intake(nil, take)
		if len(fwd) != 1 {
			t.Fatalf("the transport got %v", fwd)
		}
		tcp.end.Push(fwd[0].Reply(msg.OpSockReply, msg.StatusOK))
		tcp.end.Flush()
		r.srv.Poll(r.now)
		if m, err := a.ep.TryReceive(); err != nil || m.Req.ID != 7 {
			t.Fatalf("the application got %+v (%v)", m.Req, err)
		}
	}
	roundTrip() // grow the queues and tables once
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("%.1f allocations per door round trip, want 0", n)
	}
}
