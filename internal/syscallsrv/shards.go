package syscallsrv

import (
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/tcpeng"
)

// The shard router: what the TCP door does beyond forwarding when it has
// more than one peer. Everything here goes out through door.forward and
// comes back through door.relayReplies and door.recoverPeer.

// gather tracks one broadcast operation (create/bind/listen/close) until
// every shard has answered; the app gets one reply with the first non-OK
// status (close is always reported OK — a shard that lost its clone in a
// restart has nothing left to close).
type gather struct {
	remaining int
	status    int32
	op        msg.Op
	app       kipc.EndpointID
	appID     uint64
	flow      uint32
	// bindPort is recorded on the vsock only when a bind broadcast
	// succeeds on every shard — a half-failed bind must not change how
	// later connects are routed.
	bindPort uint16
}

// vsock is the door's view of one TCP socket it named (id below
// tcpeng.SockIDBase): which shard owns it, whether it listens, and the
// accept plumbing for listeners.
type vsock struct {
	id        uint32
	owner     int // owning shard; -1 until connect routes it
	port      uint16
	listening bool
	// nonblock mirrors the app's OpSockSetFlags: accepts on a listening
	// vsock answer from childQ or EAGAIN instead of parking the app, and
	// the standing accepts keep running so EvAcceptReady edges fire.
	nonblock bool
	// childQ holds accepted-connection replies from standing accepts that
	// arrived while no application accept was waiting.
	childQ []msg.Req
	// waiters are application accepts parked until a child arrives.
	waiters []pendingCall
	// armed marks shards with a standing accept outstanding.
	armed []bool
}

// route handles one TCP socket call in a sharded deployment (see the
// package comment for the contract).
func (d *door) route(from kipc.EndpointID, req msg.Req) {
	v := d.vsocks[req.Flow]
	if v == nil && req.Op != msg.OpSockCreate {
		// An engine-assigned id (or one nobody knows): its shard answers.
		d.forward(d.shardOf(req.Flow), req, appCall(from, req))
		return
	}
	switch req.Op {
	case msg.OpSockCreate:
		v := d.newVsock()
		fwd := req
		fwd.Arg[0] = uint64(v.id) // door-assigned id, same on all shards
		d.broadcast(from, req.ID, fwd, v.id)
	case msg.OpSockBind:
		d.broadcast(from, req.ID, req, v.id).bindPort = uint16(req.Arg[0])
	case msg.OpSockListen:
		v.listening = true
		d.changed()
		d.broadcast(from, req.ID, req, v.id)
		if v.nonblock {
			// A nonblocking listener needs children flowing into childQ
			// before the app's first accept, or no EvAcceptReady ever fires.
			d.armAccepts(v)
		}
	case msg.OpSockSetFlags:
		// The door answers itself (listeners are served from childQ by the
		// standing-accept machinery, so their clones stay in parking mode)
		// and forwards the mode to the owning shard once one exists.
		v.nonblock = req.Arg[0]&msg.SockNonblock != 0
		d.changed()
		if !v.listening && v.owner >= 0 {
			d.pushMode(v.owner, v.id, v.nonblock)
		}
		if v.listening && v.nonblock {
			d.armAccepts(v)
		}
		d.answer(from, req.ID, v.id, msg.StatusOK)
	case msg.OpSockAccept:
		d.accept(from, req, v)
	case msg.OpSockConnect:
		if v.owner < 0 {
			if v.port != 0 {
				// Explicitly bound: the flow hash decides the owner, so
				// inbound segments (routed by the same hash at IP) arrive
				// at the shard holding the connection.
				dst := netpkt.IPFromU32(uint32(req.Arg[0]))
				v.owner = netpkt.TCPShardOf(v.port, dst, uint16(req.Arg[1]), len(d.edges))
			} else {
				// Unbound: any shard will do — its engine autobinds a
				// port whose hash lands on itself. Route to the least
				// loaded shard so a skewed inbound hash (one hot shard's
				// accept backlog full while others idle) does not keep
				// stacking outbound connections on the hot shard too.
				v.owner = d.leastLoadedShard()
			}
			d.changed()
			if v.nonblock {
				// The owner's engine must know the mode BEFORE the connect
				// lands, or it parks a call the app expects back as EAGAIN.
				d.pushMode(v.owner, v.id, true)
			}
		}
		d.forward(v.owner, req, appCall(from, req))
	case msg.OpSockClose:
		// Orphan any children accepted but never delivered to the app.
		for _, child := range v.childQ {
			d.closeOrphan(uint32(child.Arg[0]))
		}
		for _, w := range v.waiters {
			d.answer(w.app, w.appID, v.id, msg.StatusErrAborted)
		}
		delete(d.vsocks, req.Flow)
		d.changed()
		d.broadcast(from, req.ID, req, v.id)
	default:
		d.forward(d.shardOf(req.Flow), req, appCall(from, req))
	}
}

// leastLoadedShard picks the owner for an unbound routed connect: the
// shard with the fewest owned sockets, queued-but-undelivered accepted
// children, and in-flight routed calls. Loads are recomputed from the
// router's live tables (not incrementally counted), so shard restarts and
// reissues can never leave a stale counter steering connects; the scan
// starts at the round-robin cursor so ties still rotate.
func (d *door) leastLoadedShard() int {
	n := len(d.edges)
	loads := make([]int, n)
	for _, v := range d.vsocks {
		if v.owner >= 0 {
			loads[v.owner]++
		}
		// Accepted children parked in childQ occupy their engine's shard
		// until the app collects them — this is the accept backlog a
		// skewed SYN hash piles onto one shard.
		for _, child := range v.childQ {
			if flow := uint32(child.Arg[0]); flow >= tcpeng.SockIDBase {
				loads[d.shardOf(flow)]++
			}
		}
	}
	for _, c := range d.pending {
		if !c.standing {
			loads[c.peer]++
		}
	}
	start := d.rr % n
	best := start
	for i := 1; i < n; i++ {
		if k := (start + i) % n; loads[k] < loads[best] {
			best = k
		}
	}
	d.rr++
	return best
}

// broadcast sends one call to every shard and gathers the replies into a
// single app reply.
func (d *door) broadcast(from kipc.EndpointID, appID uint64, fwd msg.Req, flow uint32) *gather {
	g := &gather{remaining: len(d.edges), status: msg.StatusOK, op: fwd.Op, app: from, appID: appID, flow: flow}
	for k := range d.edges {
		d.forward(k, fwd, &pendingCall{app: from, appID: appID, sock: flow, op: fwd.Op, gather: g})
	}
	return g
}

// gathered counts one shard's answer to a broadcast (an abort, when the
// shard died instead) and, when it was the last, sends the single reply.
func (d *door) gathered(g *gather, status int32) {
	if status != msg.StatusOK && g.status == msg.StatusOK {
		g.status = status
	}
	if g.remaining--; g.remaining > 0 {
		return
	}
	status = g.status // the first failure any shard reported
	if g.op == msg.OpSockClose {
		status = msg.StatusOK
	}
	if v := d.vsocks[g.flow]; v != nil {
		switch {
		case g.op == msg.OpSockBind && status == msg.StatusOK && g.bindPort != 0:
			// The port steers connect routing only once every shard holds the
			// reservation. (A half-failed bind errors to the app; the shards
			// that did reserve release the port when the socket closes.)
			v.port = g.bindPort
			d.changed()
		case g.op == msg.OpSockCreate && status != msg.StatusOK:
			// The app never learns this socket id and will never close it:
			// undo the create on every shard that succeeded and drop the
			// routing entry, or failed creates accumulate pcbs forever.
			for k := range d.edges {
				d.forward(k, msg.Req{Op: msg.OpSockClose, Flow: g.flow}, nil)
			}
			delete(d.vsocks, g.flow)
			d.changed()
		}
	}
	d.answer(g.app, g.appID, g.flow, status)
}

// accept serves an application accept on a door-named socket: from the
// queued children if any, otherwise by parking the app and keeping one
// standing accept per shard.
func (d *door) accept(from kipc.EndpointID, req msg.Req, v *vsock) {
	switch {
	case !v.listening:
		d.forward(d.shardOf(req.Flow), req, appCall(from, req))
	case len(v.childQ) > 0:
		rep := v.childQ[0]
		v.childQ = v.childQ[1:]
		rep.ID = req.ID
		d.toApp(from, rep)
	case v.nonblock:
		// Nonblocking accept: answer EAGAIN now, keep the standing accepts
		// running so the next child raises EvAcceptReady.
		d.answer(from, req.ID, v.id, msg.StatusErrAgain)
		d.armAccepts(v)
	default:
		v.waiters = append(v.waiters, *appCall(from, req))
		d.armAccepts(v)
	}
}

// armAccepts ensures every shard has a standing accept outstanding for the
// listener, so a connection landing on any shard surfaces immediately.
func (d *door) armAccepts(v *vsock) {
	for k := range d.edges {
		if !v.armed[k] {
			v.armed[k] = true
			acc := msg.Req{Op: msg.OpSockAccept, Flow: v.id}
			d.forward(k, acc, &pendingCall{sock: v.id, op: acc.Op, standing: true})
		}
	}
}

// standingAcceptReply handles the completion of a door-synthesized accept:
// hand the child to a waiting app accept or queue it.
func (d *door) standingAcceptReply(call pendingCall, r msg.Req) {
	v := d.vsocks[call.sock]
	if v == nil {
		// Listener closed while the accept was parked; don't leak the child.
		if r.Status == msg.StatusOK {
			d.closeOrphan(uint32(r.Arg[0]))
		}
		return
	}
	v.armed[call.peer] = false
	if r.Status != msg.StatusOK {
		return // listener aborted; re-armed on demand
	}
	if len(v.waiters) > 0 {
		w := v.waiters[0]
		v.waiters = v.waiters[1:]
		r.ID = w.appID
		d.toApp(w.app, r)
	} else if v.childQ = append(v.childQ, r); len(v.childQ) == 1 {
		// Empty → nonempty edge for a nonblocking accepter.
		d.pokeEvent(v.id, msg.EvAcceptReady)
	}
	if len(v.waiters) > 0 || v.nonblock {
		d.armAccepts(v)
	}
}

// closeOrphan tells a shard to close a child connection the application
// will never see (its listener closed first). No reply is expected.
func (d *door) closeOrphan(child uint32) {
	if child != 0 {
		d.forward(d.shardOf(child), msg.Req{Op: msg.OpSockClose, Flow: child}, nil)
	}
}

// shardOf maps a socket id to its owning shard: engine-assigned ids
// encode it, door-assigned ids carry an owner record.
func (d *door) shardOf(flow uint32) int {
	if flow >= tcpeng.SockIDBase {
		return int((flow - tcpeng.SockIDBase) % uint32(len(d.edges)))
	}
	if v := d.vsocks[flow]; v != nil && v.owner >= 0 {
		return v.owner
	}
	return 0
}

// noteConnectFailed releases an owner assignment when the routed connect
// did not establish: the socket is still connectable (the pcb exists on
// every shard from the create broadcast), and a retry must be free to land
// on a shard with, say, ephemeral ports to spare instead of being pinned to
// the one that just failed.
func (d *door) noteConnectFailed(flow uint32, shard int) {
	if v := d.vsocks[flow]; v != nil && v.owner == shard {
		v.owner = -1
		d.changed()
	}
}

func (d *door) newVsock() *vsock {
	d.nextV++
	if d.nextV >= tcpeng.SockIDBase {
		d.nextV = 1
	}
	v := &vsock{id: d.nextV, owner: -1, armed: make([]bool, len(d.edges))}
	d.vsocks[v.id] = v
	d.changed()
	return v
}

// shardLost is the router's part of door.recoverPeer(k). Listeners that
// still want children get their standing accept back on the new
// incarnation (its engine recovered the listener clones from the shard's
// storage key). Queued children the dead shard owned are purged: their pcbs
// died with it (established state is unrecoverable by design), so handing
// them to a later accept() would give the app a socket that answers
// ErrNoSock.
func (d *door) shardLost(k int) {
	for _, v := range d.vsocks {
		if v.listening && (len(v.waiters) > 0 || v.nonblock) {
			d.armAccepts(v)
		}
		kept := v.childQ[:0]
		for _, child := range v.childQ {
			if d.shardOf(uint32(child.Arg[0])) != k {
				kept = append(kept, child)
			}
		}
		v.childQ = kept
	}
}

// shardStake says what shard k's restart means to a subscribed socket:
// whether k held it (its mode bits must be pushed again) and the edge its
// subscriber is poked with. A listener has a clone on every shard, served
// by standing accepts in parking mode: no mode to push, and its accepter is
// woken to re-arm them. Established sockets on the dead shard are
// unrecoverable, so theirs carries EvError; the app's next nonblocking op
// observes the real outcome. Other shards' sockets are not concerned.
func (d *door) shardStake(k int, flow uint32) (held bool, bits uint64) {
	if v := d.vsocks[flow]; v != nil && v.listening {
		return false, msg.EvAcceptReady
	}
	if d.shardOf(flow) != k {
		return false, 0
	}
	return true, d.poke &^ msg.EvAcceptReady
}
