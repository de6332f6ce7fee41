package core

import (
	"fmt"
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/wiring"
)

// directFront is the "no SYSCALL server" configuration (Table II row 2):
// the transport itself registers the application-facing kernel endpoint
// and combines synchronous kernel IPC with its asynchronous channels in
// one event loop — paying the trapping toll that the SYSCALL server
// otherwise absorbs. The measured gap between rows 2 and 3 is exactly this
// interference.
type directFront struct {
	inner     proc.Service
	shimPorts *wiring.Ports
	edge      string
	fdName    string

	ep      *kipc.Endpoint
	box     *wiring.Edge
	scratch []msg.Req
	nextID  uint64
	pending map[uint64]appCall
	// subs routes the transport's OpSockEvent readiness edges to the app
	// endpoint that armed them with OpSockSetFlags. The map is owned by
	// core and persists across incarnations (like the shim ports): on
	// restart the new incarnation re-pushes the mode bits to whatever the
	// engine restored and re-announces edges, so a poller in the direct
	// row is never left parked on an edge the dead incarnation swallowed.
	subs map[uint32]kipc.EndpointID
}

type appCall struct {
	app   kipc.EndpointID
	appID uint64
}

var _ proc.Service = (*directFront)(nil)

// newDirectFrontWithPorts wraps a transport service. The shim ports and
// the event subscription table must persist across incarnations; core
// keeps both in the factory closure.
func newDirectFrontWithPorts(inner proc.Service, shimPorts *wiring.Ports, edge, fdName string, subs map[uint32]kipc.EndpointID) *directFront {
	return &directFront{
		inner:     inner,
		shimPorts: shimPorts,
		edge:      edge,
		fdName:    fdName,
		subs:      subs,
	}
}

func (d *directFront) Init(rt *proc.Runtime, restart bool) error {
	if err := d.inner.Init(rt, restart); err != nil {
		return err
	}
	d.pending = make(map[uint64]appCall)
	d.shimPorts.Begin(rt.Bell)
	// The edge's peer name is the transport component, which is the
	// substring after "sc-".
	d.box = wiring.NewEdge(d.shimPorts.Export(d.edge, d.edge[3:]))
	d.scratch = make([]msg.Req, wiring.ScratchLen)
	ep, err := d.shimPorts.Hub().Kern.Register(d.fdName, rt.Bell)
	if err != nil {
		return fmt.Errorf("directfront: %w", err)
	}
	d.ep = ep
	return nil
}

// reannounce is the shim edge's restart hook. Both ends of the edge live in
// this process, so it rebinds exactly once per incarnation, at the first
// Intake; subs is empty on a fresh boot and holds the dead incarnation's
// subscribers after a restart of the transport+shim process. Re-push the
// nonblocking mode for every subscribed socket (the restored engine
// sockets came back in blocking mode) and poke a conservative readiness
// edge so no poller stays parked on an edge the dead incarnation
// swallowed. Spurious edges are part of the event contract; TCP pokes
// carry EvError because established connections died, UDP sockets recover
// so theirs do not.
func (d *directFront) reannounce() {
	bits := uint64(msg.EvReadable | msg.EvWritable | msg.EvAcceptReady | msg.EvError)
	if d.edge == "sc-udp" {
		bits = msg.EvReadable | msg.EvWritable
	}
	for flow, app := range d.subs {
		d.nextID++
		sf := msg.Req{ID: d.nextID, Op: msg.OpSockSetFlags, Flow: flow}
		sf.Arg[0] = msg.SockNonblock
		d.box.Push(sf)
		ev := msg.Req{Op: msg.OpSockEvent, Flow: flow}
		ev.Arg[0] = bits
		_ = d.ep.Send(app, kipc.Msg{Type: uint32(ev.Op), Data: ev.MarshalBinary()})
	}
}

func (d *directFront) Poll(now time.Time) bool {
	worked := d.inner.Poll(now)

	// Replies back to the applications, drained in batches.
	if d.box.Intake(d.scratch, d.reannounce, d.relayReplies) {
		worked = true
	}
	// Application calls over kernel IPC.
	for i := 0; i < 64; i++ {
		m, err := d.ep.TryReceive(kipc.Any)
		if err != nil {
			break
		}
		if m.Type == kipc.MsgNotify || m.Data == nil {
			continue
		}
		req, err := msg.UnmarshalReq(m.Data)
		if err != nil {
			continue
		}
		switch req.Op {
		case msg.OpSockSetFlags:
			if req.Arg[0]&msg.SockNonblock != 0 {
				d.subs[req.Flow] = m.From
			} else {
				delete(d.subs, req.Flow)
			}
		case msg.OpSockClose:
			delete(d.subs, req.Flow)
		default:
			// Other ops don't touch the subscription table; they are
			// forwarded to the transport below unchanged.
		}
		d.nextID++
		id := d.nextID
		fire := req.Op == msg.OpSockRecvDone
		if !fire {
			d.pending[id] = appCall{app: m.From, appID: req.ID}
		}
		fwd := req
		fwd.ID = id
		d.box.Push(fwd)
		worked = true
	}
	if d.box.Flush(now, !worked) {
		worked = true
	}
	return worked
}

// relayReplies hands one batch of transport replies and readiness events
// to the applications waiting on them.
func (d *directFront) relayReplies(b []msg.Req) {
	for _, r := range b {
		if r.Op == msg.OpSockEvent {
			if app, ok := d.subs[r.Flow]; ok {
				_ = d.ep.Send(app, kipc.Msg{Type: uint32(r.Op), Data: r.MarshalBinary()})
			}
			continue
		}
		call, ok := d.pending[r.ID]
		if !ok {
			continue
		}
		delete(d.pending, r.ID)
		rep := r
		rep.ID = call.appID
		_ = d.ep.Send(call.app, kipc.Msg{Type: uint32(rep.Op), Data: rep.MarshalBinary()})
	}
}

func (d *directFront) Deadline(now time.Time) time.Time { return d.inner.Deadline(now) }

// OutboxDropped forwards the wrapped transport's counter plus the shim's
// own staging buffer (wiring.DropReporter).
func (d *directFront) OutboxDropped() uint64 {
	n := wiring.SumDropped(d.box)
	if r, ok := d.inner.(wiring.DropReporter); ok {
		n += r.OutboxDropped()
	}
	return n
}

func (d *directFront) Stop() {
	if d.ep != nil {
		d.ep.Close()
	}
	d.inner.Stop()
}
