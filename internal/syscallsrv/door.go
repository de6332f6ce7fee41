package syscallsrv

import (
	"fmt"
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/staterec"
	"newtos/internal/storage"
	"newtos/internal/wiring"
)

// pendingCall routes a peer's reply back to the blocked application. Its
// socket and op are also all a reissue after the peer's restart sends again:
// recv and accept carry nothing else.
type pendingCall struct {
	app   kipc.EndpointID
	appID uint64
	sock  uint32
	op    msg.Op
}

// appCall is the pending entry of a call forwarded as the application made it.
func appCall(from kipc.EndpointID, req msg.Req) *pendingCall {
	return &pendingCall{app: from, appID: req.ID, sock: req.Flow, op: req.Op}
}

// door is one incarnation of one door.
type door struct {
	Door
	store *storage.Store
	ep    *kipc.Endpoint
	edge  *wiring.Edge // to the peer
	// onRestart is recoverPeer and relay is relayReplies, bound once so
	// that an iteration allocates no closures.
	onRestart func()
	relay     func([]msg.Req)

	nextID  uint64
	pending map[uint64]pendingCall
	// subs routes a peer's OpSockEvent readiness edges to the application
	// endpoint that armed them by putting the socket in nonblocking mode.
	subs map[uint32]kipc.EndpointID

	// meta paces flushes of the parked record (staterec.Gap of its size);
	// now is the current iteration's timestamp, for flushes made mid-dispatch.
	meta staterec.Pacer
	now  time.Time
}

func (d *door) init(ports *wiring.Ports, rt *proc.Runtime, restart bool) error {
	d.pending = make(map[uint64]pendingCall)
	d.subs = make(map[uint32]kipc.EndpointID)
	d.edge = wiring.NewEdge(ports.Export(d.peer[0], d.peer[1]))
	d.onRestart = d.recoverPeer
	d.relay = d.relayReplies
	if restart {
		if blob, ok := d.store.Get(d.StateKey()); ok {
			_ = d.load(blob) // an unreadable record is an empty one
		}
	}
	var err error
	d.ep, err = ports.Hub().Kern.Register(d.name, rt.Bell)
	return err
}

// Poll is the door's iteration: the peer's replies outward (after the
// peer's recovery, when it reincarnated), application calls inward, one
// batch flushed to the peer.
func (d *door) Poll(now time.Time) bool {
	d.now = now
	worked := d.edge.Intake(d.onRestart, d.relay)
	for i := 0; i < 64; i++ {
		m, err := d.ep.TryReceive()
		if err != nil {
			break
		}
		worked = true
		if m.Req.NPtr > msg.MaxPtrs {
			// The one check on what an application sends: its chain
			// would overrun the request everywhere behind the door.
			d.answer(m.From, m.Req.ID, m.Req.Flow, msg.StatusErrInval)
			continue
		}
		d.noteSubscription(m.From, m.Req)
		d.forward(m.Req, appCall(m.From, m.Req))
	}
	if d.edge.Flush() {
		worked = true
	}
	d.parkIfDue() // a record change the pacing rule held back
	return worked
}

// forward sends req to the peer under a fresh internal ID. call, unless
// nil, waits in the pending table for the reply carrying that ID; a nil
// call, or a recv-done, is fire-and-forget (a reply to an ID nobody waits
// on is skipped by relayReplies).
func (d *door) forward(req msg.Req, call *pendingCall) {
	d.nextID++
	req.ID = d.nextID
	if call != nil && req.Op != msg.OpSockRecvDone {
		d.pending[req.ID] = *call
	}
	d.edge.Push(req)
}

// pushNonblock puts a socket back in nonblocking mode on the peer's engine.
func (d *door) pushNonblock(flow uint32) {
	sf := msg.Req{Op: msg.OpSockSetFlags, Flow: flow}
	sf.Arg[0] = msg.SockNonblock
	d.forward(sf, nil)
}

// toApp queues one message to an application and returns: a reply never
// waits for the application to receive it. An application that is gone
// loses it.
func (d *door) toApp(app kipc.EndpointID, rep msg.Req) {
	_ = d.ep.Send(app, kipc.Msg{Req: rep})
}

// answer completes an application's call with a status of the door's making.
func (d *door) answer(app kipc.EndpointID, appID uint64, flow uint32, status int32) {
	d.toApp(app, msg.Req{ID: appID, Op: msg.OpSockReply, Flow: flow, Status: status})
}

// pokeEvent synthesizes a readiness event towards a socket's subscriber.
func (d *door) pokeEvent(flow uint32, bits uint64) {
	if app, ok := d.subs[flow]; ok && bits != 0 {
		ev := msg.Req{Op: msg.OpSockEvent, Flow: flow}
		ev.Arg[0] = bits
		d.toApp(app, ev)
	}
}

// noteSubscription maintains the event-routing table: an app that puts a
// socket in nonblocking mode becomes the recipient of its OpSockEvent
// edges; clearing the flag or closing the socket unsubscribes.
func (d *door) noteSubscription(from kipc.EndpointID, req msg.Req) {
	if req.Op != msg.OpSockSetFlags && req.Op != msg.OpSockClose {
		return
	}
	arm := req.Op == msg.OpSockSetFlags && req.Arg[0]&msg.SockNonblock != 0
	if app, had := d.subs[req.Flow]; arm == had && (!arm || app == from) {
		return
	}
	if arm {
		d.subs[req.Flow] = from
	} else {
		delete(d.subs, req.Flow)
	}
	d.changed()
}

// relayReplies relays one batch from a peer back to the applications.
// Readiness events (OpSockEvent) are not replies: they carry no pending ID
// and route through the subscription table instead.
func (d *door) relayReplies(b []msg.Req) {
	for i := range b {
		r := &b[i]
		if r.Op == msg.OpSockEvent {
			if app, ok := d.subs[r.Flow]; ok {
				d.toApp(app, *r)
			}
			continue
		}
		call, known := d.pending[r.ID]
		if !known {
			continue // fire-and-forget, or from a previous incarnation
		}
		delete(d.pending, r.ID)
		r.ID = call.appID // the slot is the door's until the batch returns
		d.toApp(call.app, *r)
	}
}

// recoverPeer is the restart hook of the edge to the peer (the package
// comment states the contract).
func (d *door) recoverPeer() {
	// Collect reissues first: inserting into d.pending while ranging over
	// it may make the new entry visible to the same iteration, reissuing
	// the call twice.
	var reissues []pendingCall
	for id, call := range d.pending {
		delete(d.pending, id)
		if call.op == msg.OpSockRecv || call.op == msg.OpSockAccept {
			reissues = append(reissues, call)
		} else {
			d.answer(call.app, call.appID, call.sock, msg.StatusErrAborted)
		}
	}
	for _, call := range reissues {
		d.forward(msg.Req{Op: call.op, Flow: call.sock}, &call)
	}
	for flow := range d.subs {
		d.pushNonblock(flow)
		d.pokeEvent(flow, d.poke)
	}
}

// record describes what the door parks in the storage server: who
// subscribed to which socket. Calls in flight are not kept: the
// applications' call timeouts end them.
type record struct {
	subs []sub
}

type sub struct {
	flow uint32
	app  kipc.EndpointID
}

func (p *record) fields(c *staterec.Codec) {
	staterec.List(c, &p.subs, 4+4, func(s *sub) {
		staterec.Num(c, &s.flow)
		staterec.Num(c, &s.app)
	})
}

// entries is the size the pacing rule sees.
func (d *door) entries() int { return len(d.subs) }

// changed records that the parked record is stale and flushes it at once
// when the pacing rule allows (always, while the tables are small);
// otherwise Poll flushes it when the gap has passed, keeping connection
// setup O(1) in the socket count. It only runs on control-plane calls
// (create/bind/listen/connect/close/set-flags), never on the data path.
func (d *door) changed() {
	d.meta.Mark()
	d.parkIfDue()
}

func (d *door) parkIfDue() {
	if d.meta.Take(d.now, d.entries()) {
		d.park()
	}
}

// park writes the door's record to the storage server.
func (d *door) park() {
	p := record{subs: make([]sub, 0, len(d.subs))}
	for flow, app := range d.subs {
		p.subs = append(p.subs, sub{flow, app})
	}
	d.store.Put(d.StateKey(), staterec.Encode(p.fields))
}

// load restores the record park wrote, after the door's own restart; on
// error the door's tables are left as they were.
func (d *door) load(blob []byte) error {
	var p record
	if err := staterec.Decode(blob, p.fields); err != nil {
		return fmt.Errorf("syscallsrv: %s record: %w", d.name, err)
	}
	for _, s := range p.subs {
		d.subs[s.flow] = s.app
	}
	return nil
}
