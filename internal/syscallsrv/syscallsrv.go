// Package syscallsrv implements the SYSCALL server (paper §V-B): the one
// server that "pays the trapping toll for the rest of the system". It
// receives synchronous POSIX-style socket calls from applications over
// kernel IPC, peeks into them, and forwards them to the transports over
// asynchronous channels; replies travel the same way back.
//
// It is stateless apart from remembering the last unfinished operation per
// socket, which lets it reissue recv-class operations when a transport
// server restarts and return errors for the rest — exactly the paper's
// recovery contract.
//
// # Sharded TCP routing
//
// With N > 1 TCP shards (docs/ARCHITECTURE.md "Sharded TCP") the server is
// also the shard router for socket calls:
//
//   - create/bind/listen/close are broadcast to every shard (the front
//     assigns the socket id below tcpeng.SockIDBase so all shards share
//     it), and the app's reply is gathered from all N;
//   - connect is routed to exactly one shard — the flow-hash owner when
//     the socket was explicitly bound, round-robin otherwise (the shard's
//     engine then autobinds a port whose hash lands on itself);
//   - accept keeps one standing accept per shard per listener, so a SYN
//     hashed to any shard surfaces through its local listener clone;
//   - data ops route by socket id: engine-assigned ids encode their shard,
//     frontdoor-assigned ids carry an owner record (persisted to the
//     storage server so routing survives a SYSCALL-server restart).
//
// A single shard's restart aborts/reissues only the calls in flight to
// that shard; the other shards' pending operations are untouched.
package syscallsrv

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/proc"
	"newtos/internal/staterec"
	"newtos/internal/tcpeng"
	"newtos/internal/tcpsrv"
	"newtos/internal/wiring"
)

// Endpoint names applications look up. In configurations without a SYSCALL
// server, the transports register these names themselves.
const (
	TCPFrontdoor = "frontdoor-tcp"
	UDPFrontdoor = "frontdoor-udp"
	PFFrontdoor  = "frontdoor-pf"
)

// ShardMetaKey is where the frontdoor's TCP shard-routing table (socket
// owners, listener flags, id counter) is persisted so a SYSCALL-server
// restart keeps routing established sockets to their shards.
const ShardMetaKey = "sc/tcp/shards"

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
	epIdx     int
	flow      uint32
	// bindPort is recorded on the vsock only when a bind broadcast
	// succeeds on every shard — a half-failed bind must not change how
	// later connects are routed.
	bindPort uint16
}

// sub records which application endpoint subscribed to a socket's
// readiness events (by putting it in nonblocking mode with OpSockSetFlags).
// Subscriptions are in-memory: they die with the SYSCALL server, and the
// application's poller re-arms them by re-issuing SetFlags.
type sub struct {
	app   kipc.EndpointID
	epIdx int
}

// vsock is the frontdoor's view of one TCP socket it named (id below
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

// pendingCall routes a transport reply back to the blocked application.
type pendingCall struct {
	app   kipc.EndpointID
	appID uint64
	sock  uint32
	op    msg.Op
	orig  msg.Req
	epIdx int // which frontdoor the call arrived on (reply goes back there)
	// shard is the TCP shard the call was forwarded to (-1 for UDP/PF).
	shard int
	// gather links the call into a broadcast (nil for single-shard calls).
	gather *gather
	// standing marks a frontdoor-synthesized accept (no app is waiting on
	// this ID; completions feed the listener's childQ/waiters).
	standing bool
}

// Server is one SYSCALL server incarnation.
type Server struct {
	ports   *wiring.Ports
	nShards int

	eps      []*kipc.Endpoint
	tcpBoxes []*wiring.Edge
	udpBox   *wiring.Edge
	pfBox    *wiring.Edge
	scratch  []msg.Req

	nextID  uint64
	pending map[uint64]pendingCall
	// subsTCP / subsUDP route OpSockEvent readiness edges from the
	// transports to the application endpoint that armed them. Keyed per
	// transport because TCP and UDP socket id spaces overlap.
	subsTCP map[uint32]sub
	subsUDP map[uint32]sub

	// Sharded-TCP routing state (empty when nShards <= 1).
	vsocks map[uint32]*vsock
	nextV  uint32
	rr     int

	// meta paces shard-table flushes (staterec.Gap of the table size); now
	// is the current iteration's timestamp, for flushes made mid-dispatch.
	meta staterec.Pacer
	now  time.Time
}

var _ proc.Service = (*Server)(nil)

// New creates a SYSCALL server incarnation routing to tcpShards TCP shards
// (<= 1 means the single unsharded TCP server).
func New(ports *wiring.Ports, tcpShards int) *Server {
	if tcpShards < 1 {
		tcpShards = 1
	}
	return &Server{ports: ports, nShards: tcpShards}
}

// Init registers the frontdoor endpoints and exports the control channels
// to the transports and the packet filter; on restart the shard-routing
// table is recovered from the storage server.
func (s *Server) Init(rt *proc.Runtime, restart bool) error {
	s.pending = make(map[uint64]pendingCall)
	s.vsocks = make(map[uint32]*vsock)
	s.subsTCP = make(map[uint32]sub)
	s.subsUDP = make(map[uint32]sub)
	if restart && s.nShards > 1 {
		if blob, ok := s.ports.Hub().Store.Get(ShardMetaKey); ok {
			_ = s.loadShardMeta(blob) // an unreadable table is an empty one
		}
	}
	s.ports.Begin(rt.Bell)
	s.tcpBoxes = make([]*wiring.Edge, s.nShards)
	for k := 0; k < s.nShards; k++ {
		s.tcpBoxes[k] = wiring.NewEdge(s.ports.Export(tcpsrv.SCEdge(k, s.nShards)))
	}
	s.udpBox = wiring.NewEdge(s.ports.Export("sc-udp", "udp"))
	s.pfBox = wiring.NewEdge(s.ports.Export("sc-pf", "pf"))
	s.scratch = make([]msg.Req, wiring.ScratchLen)
	kern := s.ports.Hub().Kern
	s.eps = nil
	for _, name := range []string{TCPFrontdoor, UDPFrontdoor, PFFrontdoor} {
		ep, err := kern.Register(name, rt.Bell)
		if err != nil {
			return fmt.Errorf("syscallsrv: %w", err)
		}
		s.eps = append(s.eps, ep)
	}
	return nil
}

// Poll dispatches app calls inward and transport replies outward.
func (s *Server) Poll(now time.Time) bool {
	s.now = now
	if s.ports.StoreWiped() && s.nShards > 1 {
		s.flushShardMeta()
	}
	worked := false

	// Transport edges. A restarted transport gets what was in flight to it
	// reissued or aborted (each TCP shard recovers independently); then its
	// replies are relayed to the blocked applications.
	tcpReplies := func(b []msg.Req) { s.relayReplies(b, s.subsTCP) }
	for k, box := range s.tcpBoxes {
		recoverShard := func() {
			if s.nShards > 1 {
				s.recoverTCPShard(k)
			} else {
				s.recoverTransport(true)
			}
		}
		if box.Intake(s.scratch, recoverShard, tcpReplies) {
			worked = true
		}
	}
	if s.udpBox.Intake(s.scratch, func() { s.recoverTransport(false) }, func(b []msg.Req) { s.relayReplies(b, s.subsUDP) }) {
		worked = true
	}
	if s.pfBox.Intake(s.scratch, nil, func(b []msg.Req) { s.relayReplies(b, nil) }) {
		worked = true
	}

	// Application calls arriving over kernel IPC.
	for i, ep := range s.eps {
		for j := 0; j < 64; j++ {
			m, err := ep.TryReceive(kipc.Any)
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
			s.dispatch(i, m.From, req)
			worked = true
		}
	}

	// Flush queued forwards: one paced batch per transport per iteration.
	idle := !worked
	for _, box := range s.tcpBoxes {
		if box.Flush(now, idle) {
			worked = true
		}
	}
	if s.udpBox.Flush(now, idle) {
		worked = true
	}
	if s.pfBox.Flush(now, idle) {
		worked = true
	}

	s.flushShardMetaIfDue() // a shard-table change the pacing rule held back
	return worked
}

// dispatch forwards one application call to its transport with a fresh
// internal ID. epIdx identifies which frontdoor it arrived on (0 = TCP,
// 1 = UDP, 2 = PF).
func (s *Server) dispatch(epIdx int, from kipc.EndpointID, req msg.Req) {
	s.noteSubscription(epIdx, from, req)
	if epIdx == 0 && s.nShards > 1 {
		s.dispatchTCPSharded(from, req)
		return
	}
	s.nextID++
	id := s.nextID
	call := pendingCall{app: from, appID: req.ID, sock: req.Flow, op: req.Op, orig: req, epIdx: epIdx, shard: -1}
	if epIdx == 0 {
		call.shard = 0
	}
	s.pending[id] = call
	fwd := req
	fwd.ID = id

	// Fire-and-forget operations produce no reply.
	if req.Op == msg.OpSockRecvDone {
		delete(s.pending, id)
	}

	switch epIdx {
	case 0:
		s.tcpBoxes[0].Push(fwd)
	case 1:
		s.udpBox.Push(fwd)
	case 2:
		s.pfBox.Push(fwd)
	}
}

// noteSubscription maintains the event-routing tables: an app that puts a
// socket in nonblocking mode becomes the recipient of its OpSockEvent
// edges; clearing the flag or closing the socket unsubscribes.
func (s *Server) noteSubscription(epIdx int, from kipc.EndpointID, req msg.Req) {
	var subs map[uint32]sub
	switch epIdx {
	case 0:
		subs = s.subsTCP
	case 1:
		subs = s.subsUDP
	default:
		return
	}
	switch req.Op {
	case msg.OpSockSetFlags:
		if req.Arg[0]&msg.SockNonblock != 0 {
			subs[req.Flow] = sub{app: from, epIdx: epIdx}
		} else {
			delete(subs, req.Flow)
		}
	case msg.OpSockClose:
		delete(subs, req.Flow)
	default:
		// Other ops don't change the subscription table.
	}
}

// deliverEvent relays one transport readiness event to its subscriber.
func (s *Server) deliverEvent(subs map[uint32]sub, r msg.Req) {
	if sb, ok := subs[r.Flow]; ok {
		_ = s.sendToApp(sb.epIdx, sb.app, r)
	}
}

// pokeEvent synthesizes a readiness event towards a subscriber. Used after
// restarts: edges in flight to or from a dead incarnation are gone, so the
// frontdoor re-announces conservatively and the app re-checks with
// nonblocking ops (spurious events are part of the contract).
func (s *Server) pokeEvent(subs map[uint32]sub, flow uint32, bits uint64) {
	sb, ok := subs[flow]
	if !ok {
		return
	}
	ev := msg.Req{Op: msg.OpSockEvent, Flow: flow}
	ev.Arg[0] = bits
	_ = s.sendToApp(sb.epIdx, sb.app, ev)
}

// dispatchTCPSharded routes one TCP socket call in a sharded deployment
// (see the package comment for the contract).
func (s *Server) dispatchTCPSharded(from kipc.EndpointID, req msg.Req) {
	switch req.Op {
	case msg.OpSockCreate:
		v := s.newVsock()
		fwd := req
		fwd.Arg[0] = uint64(v.id) // frontdoor-assigned id, same on all shards
		s.broadcastTCP(from, req, fwd, v.id)
	case msg.OpSockBind:
		v := s.vsocks[req.Flow]
		if v == nil {
			s.forwardTCP(s.shardOfFlow(req.Flow), from, req)
			return
		}
		g := s.broadcastTCP(from, req, req, v.id)
		g.bindPort = uint16(req.Arg[0])
	case msg.OpSockListen:
		v := s.vsocks[req.Flow]
		if v == nil {
			s.forwardTCP(s.shardOfFlow(req.Flow), from, req)
			return
		}
		v.listening = true
		if v.armed == nil {
			v.armed = make([]bool, s.nShards)
		}
		s.persistShardMeta()
		s.broadcastTCP(from, req, req, v.id)
		if v.nonblock {
			// A nonblocking listener needs children flowing into childQ
			// before the app's first accept, or no EvAcceptReady ever fires.
			s.armAccepts(v)
		}
	case msg.OpSockSetFlags:
		s.setFlagsTCPSharded(from, req)
	case msg.OpSockAccept:
		s.acceptTCP(from, req)
	case msg.OpSockConnect:
		v := s.vsocks[req.Flow]
		if v != nil && v.owner < 0 {
			if v.port != 0 {
				// Explicitly bound: the flow hash decides the owner, so
				// inbound segments (routed by the same hash at IP) arrive
				// at the shard holding the connection.
				dst := netpkt.IPFromU32(uint32(req.Arg[0]))
				v.owner = netpkt.TCPShardOf(v.port, dst, uint16(req.Arg[1]), s.nShards)
			} else {
				// Unbound: any shard will do — its engine autobinds a
				// port whose hash lands on itself. Route to the least
				// loaded shard so a skewed inbound hash (one hot shard's
				// accept backlog full while others idle) does not keep
				// stacking outbound connections on the hot shard too.
				v.owner = s.leastLoadedShard()
			}
			s.persistShardMeta()
			if v.nonblock {
				// The owner's engine must know the mode BEFORE the connect
				// lands, or it parks a call the app expects back as EAGAIN.
				s.pushSetFlags(v.owner, v.id)
			}
		}
		s.forwardTCP(s.shardOfFlow(req.Flow), from, req)
	case msg.OpSockClose:
		v := s.vsocks[req.Flow]
		if v == nil {
			s.forwardTCP(s.shardOfFlow(req.Flow), from, req)
			return
		}
		// Orphan any children accepted but never delivered to the app.
		for _, child := range v.childQ {
			s.closeOrphan(uint32(child.Arg[0]))
		}
		for _, w := range v.waiters {
			rep := msg.Req{ID: w.appID, Op: msg.OpSockReply, Flow: v.id, Status: msg.StatusErrAborted}
			_ = s.sendToApp(w.epIdx, w.app, rep)
		}
		delete(s.vsocks, req.Flow)
		s.persistShardMeta()
		s.broadcastTCP(from, req, req, v.id)
	default:
		s.forwardTCP(s.shardOfFlow(req.Flow), from, req)
	}
}

// setFlagsTCPSharded applies OpSockSetFlags in a sharded deployment. For
// engine-assigned ids the owning shard handles it; for frontdoor-named
// sockets the frontdoor answers itself (listeners are served from childQ by
// the standing-accept machinery, so their clones stay in parking mode) and
// forwards the mode to the owning shard once one exists.
func (s *Server) setFlagsTCPSharded(from kipc.EndpointID, req msg.Req) {
	v := s.vsocks[req.Flow]
	if v == nil {
		s.forwardTCP(s.shardOfFlow(req.Flow), from, req)
		return
	}
	v.nonblock = req.Arg[0]&msg.SockNonblock != 0
	s.persistShardMeta()
	if !v.listening && v.owner >= 0 {
		s.pushSetFlags(v.owner, v.id)
	}
	if v.listening && v.nonblock {
		s.armAccepts(v)
	}
	rep := msg.Req{ID: req.ID, Op: msg.OpSockReply, Flow: v.id, Status: msg.StatusOK}
	_ = s.sendToApp(0, from, rep)
}

// pushSetFlags forwards a socket's current mode to one shard's engine
// (fire-and-forget; the reply's unknown ID is skipped by relayReplies).
func (s *Server) pushSetFlags(shard int, flow uint32) {
	v := s.vsocks[flow]
	if v == nil {
		return
	}
	s.nextID++
	sf := msg.Req{ID: s.nextID, Op: msg.OpSockSetFlags, Flow: flow}
	if v.nonblock {
		sf.Arg[0] = msg.SockNonblock
	}
	s.tcpBoxes[shard].Push(sf)
}

// leastLoadedShard picks the owner for an unbound routed connect: the
// shard with the fewest owned sockets, queued-but-undelivered accepted
// children, and in-flight routed calls. Loads are recomputed from the
// router's live tables (not incrementally counted), so shard restarts and
// reissues can never leave a stale counter steering connects; the scan
// starts at the round-robin cursor so ties still rotate.
func (s *Server) leastLoadedShard() int {
	loads := make([]int, s.nShards)
	for _, v := range s.vsocks {
		if v.owner >= 0 {
			loads[v.owner]++
		}
		// Accepted children parked in childQ occupy their engine's shard
		// until the app collects them — this is the accept backlog a
		// skewed SYN hash piles onto one shard.
		for _, child := range v.childQ {
			if flow := uint32(child.Arg[0]); flow >= tcpeng.SockIDBase {
				loads[(flow-tcpeng.SockIDBase)%uint32(s.nShards)]++
			}
		}
	}
	for _, c := range s.pending {
		if c.shard >= 0 && !c.standing {
			loads[c.shard]++
		}
	}
	start := s.rr % s.nShards
	best := start
	for i := 1; i < s.nShards; i++ {
		if k := (start + i) % s.nShards; loads[k] < loads[best] {
			best = k
		}
	}
	s.rr++
	return best
}

// forwardTCP sends one call to a single TCP shard as a plain app call.
func (s *Server) forwardTCP(shard int, from kipc.EndpointID, req msg.Req) {
	s.nextID++
	id := s.nextID
	if req.Op != msg.OpSockRecvDone {
		s.pending[id] = pendingCall{app: from, appID: req.ID, sock: req.Flow, op: req.Op, orig: req, epIdx: 0, shard: shard}
	}
	fwd := req
	fwd.ID = id
	s.tcpBoxes[shard].Push(fwd)
}

// broadcastTCP sends one call to every shard and gathers the replies into
// a single app reply.
func (s *Server) broadcastTCP(from kipc.EndpointID, orig, fwd msg.Req, flow uint32) *gather {
	g := &gather{
		remaining: s.nShards, status: msg.StatusOK, op: orig.Op,
		app: from, appID: orig.ID, epIdx: 0, flow: flow,
	}
	for k := 0; k < s.nShards; k++ {
		s.nextID++
		id := s.nextID
		f := fwd
		f.ID = id
		s.pending[id] = pendingCall{
			app: from, appID: orig.ID, sock: flow, op: orig.Op,
			orig: f, epIdx: 0, shard: k, gather: g,
		}
		s.tcpBoxes[k].Push(f)
	}
	return g
}

// acceptTCP serves an application accept: from the queued children if any,
// otherwise by parking the app and keeping one standing accept per shard.
func (s *Server) acceptTCP(from kipc.EndpointID, req msg.Req) {
	v := s.vsocks[req.Flow]
	if v == nil || !v.listening {
		s.forwardTCP(s.shardOfFlow(req.Flow), from, req)
		return
	}
	if len(v.childQ) > 0 {
		rep := v.childQ[0]
		v.childQ = v.childQ[1:]
		rep.ID = req.ID
		_ = s.sendToApp(0, from, rep)
		return
	}
	if v.nonblock {
		// Nonblocking accept: answer EAGAIN now, keep the standing accepts
		// running so the next child raises EvAcceptReady.
		rep := msg.Req{ID: req.ID, Op: msg.OpSockReply, Flow: v.id, Status: msg.StatusErrAgain}
		_ = s.sendToApp(0, from, rep)
		s.armAccepts(v)
		return
	}
	v.waiters = append(v.waiters, pendingCall{app: from, appID: req.ID, sock: v.id, op: req.Op, orig: req, epIdx: 0})
	s.armAccepts(v)
}

// armAccepts ensures every shard has a standing accept outstanding for the
// listener, so a connection landing on any shard surfaces immediately.
func (s *Server) armAccepts(v *vsock) {
	for k := 0; k < s.nShards; k++ {
		if v.armed[k] {
			continue
		}
		s.nextID++
		id := s.nextID
		acc := msg.Req{ID: id, Op: msg.OpSockAccept, Flow: v.id}
		s.pending[id] = pendingCall{sock: v.id, op: msg.OpSockAccept, orig: acc, epIdx: 0, shard: k, standing: true}
		v.armed[k] = true
		s.tcpBoxes[k].Push(acc)
	}
}

// closeOrphan tells a shard to close a child connection the application
// will never see (its listener closed first). No reply is expected.
func (s *Server) closeOrphan(child uint32) {
	if child == 0 {
		return
	}
	s.nextID++
	cl := msg.Req{ID: s.nextID, Op: msg.OpSockClose, Flow: child}
	s.tcpBoxes[s.shardOfFlow(child)].Push(cl)
}

// shardOfFlow maps a socket id to its owning shard: engine-assigned ids
// encode it, frontdoor-assigned ids carry an owner record.
func (s *Server) shardOfFlow(flow uint32) int {
	if flow >= tcpeng.SockIDBase {
		return int((flow - tcpeng.SockIDBase) % uint32(s.nShards))
	}
	if v := s.vsocks[flow]; v != nil && v.owner >= 0 {
		return v.owner
	}
	return 0
}

// noteConnectFailed releases a round-robin owner assignment when the
// routed connect did not establish: the socket is still connectable (the
// pcb exists on every shard from the create broadcast), and a retry must
// be free to land on a shard with, say, ephemeral ports to spare instead
// of being pinned to the one that just failed.
func (s *Server) noteConnectFailed(flow uint32, shard int) {
	if v := s.vsocks[flow]; v != nil && v.owner == shard {
		v.owner = -1
		s.persistShardMeta()
	}
}

func (s *Server) newVsock() *vsock {
	s.nextV++
	if s.nextV >= tcpeng.SockIDBase {
		s.nextV = 1
	}
	v := &vsock{id: s.nextV, owner: -1, armed: make([]bool, s.nShards)}
	s.vsocks[v.id] = v
	s.persistShardMeta()
	return v
}

// relayReplies relays one batch of transport replies back to blocked
// applications. Readiness events (OpSockEvent) are not replies: they carry
// no pending ID and route through the transport's subscription table
// (nil for PF, which raises none) instead.
func (s *Server) relayReplies(b []msg.Req, subs map[uint32]sub) {
	for _, r := range b {
		if r.Op == msg.OpSockEvent {
			if subs != nil {
				s.deliverEvent(subs, r)
			}
			continue
		}
		call, known := s.pending[r.ID]
		if !known {
			continue // reply from a previous transport incarnation
		}
		delete(s.pending, r.ID)
		switch {
		case call.gather != nil:
			g := call.gather
			if r.Status != msg.StatusOK && g.status == msg.StatusOK {
				g.status = r.Status
			}
			g.remaining--
			if g.remaining == 0 {
				s.finishGather(g)
			}
		case call.standing:
			s.standingAcceptReply(call, r)
		default:
			// Release the routed owner ONLY on port exhaustion: there
			// the clone holds no handshake state and a retry must be
			// free to pick a shard with ephemeral ports to spare.
			// EAGAIN means in progress, and hard failures pin a sticky
			// status on the owner — both need later connect polls to
			// keep landing on the SAME shard, or the router would
			// start a duplicate handshake on a fresh clone.
			if call.op == msg.OpSockConnect && r.Status == msg.StatusErrNoBufs {
				s.noteConnectFailed(call.sock, call.shard)
			}
			rep := r
			rep.ID = call.appID
			// The app is blocked in Receive on its SendRec; this rendezvous
			// completes immediately.
			_ = s.sendToApp(call.epIdx, call.app, rep)
		}
	}
}

// finishGather sends the single reply of a completed broadcast.
func (s *Server) finishGather(g *gather) {
	status := g.status
	if g.op == msg.OpSockClose {
		status = msg.StatusOK
	}
	if g.op == msg.OpSockBind && status == msg.StatusOK && g.bindPort != 0 {
		// The port steers connect routing only once every shard holds the
		// reservation. (A half-failed bind errors to the app; the shards
		// that did reserve release the port when the socket closes.)
		if v := s.vsocks[g.flow]; v != nil {
			v.port = g.bindPort
			s.persistShardMeta()
		}
	}
	if g.op == msg.OpSockCreate && status != msg.StatusOK {
		// The app never learns this socket id and will never close it:
		// undo the create on every shard that succeeded and drop the
		// routing entry, or failed creates accumulate pcbs forever.
		if _, ok := s.vsocks[g.flow]; ok {
			for k := 0; k < s.nShards; k++ {
				s.nextID++
				s.tcpBoxes[k].Push(msg.Req{ID: s.nextID, Op: msg.OpSockClose, Flow: g.flow})
			}
			delete(s.vsocks, g.flow)
			s.persistShardMeta()
		}
	}
	rep := msg.Req{ID: g.appID, Op: msg.OpSockReply, Flow: g.flow, Status: status}
	_ = s.sendToApp(g.epIdx, g.app, rep)
}

// standingAcceptReply handles the completion of a frontdoor-synthesized
// accept: hand the child to a waiting app accept or queue it.
func (s *Server) standingAcceptReply(call pendingCall, r msg.Req) {
	v := s.vsocks[call.sock]
	if v == nil {
		// Listener closed while the accept was parked; don't leak the child.
		if r.Status == msg.StatusOK {
			s.closeOrphan(uint32(r.Arg[0]))
		}
		return
	}
	v.armed[call.shard] = false
	if r.Status != msg.StatusOK {
		return // listener aborted or shard restarted; re-armed on demand
	}
	if len(v.waiters) > 0 {
		w := v.waiters[0]
		v.waiters = v.waiters[1:]
		rep := r
		rep.ID = w.appID
		_ = s.sendToApp(w.epIdx, w.app, rep)
		if len(v.waiters) > 0 || v.nonblock {
			s.armAccepts(v)
		}
	} else {
		v.childQ = append(v.childQ, r)
		if len(v.childQ) == 1 {
			// Empty → nonempty edge for a nonblocking accepter.
			s.pokeEvent(s.subsTCP, v.id, msg.EvAcceptReady)
		}
		if v.nonblock {
			s.armAccepts(v)
		}
	}
}

func (s *Server) sendToApp(epIdx int, app kipc.EndpointID, rep msg.Req) error {
	if epIdx < 0 || epIdx >= len(s.eps) {
		return nil
	}
	return s.eps[epIdx].Send(app, kipc.Msg{Type: uint32(rep.Op), Data: rep.MarshalBinary()})
}

// recoverTCPShard handles the restart of ONE TCP shard: only calls in
// flight to that shard are touched. Recv-class calls and standing accepts
// are reissued against the new incarnation (the engine recovered its
// listeners from the shard's storage key); broadcasts count the dead shard
// as aborted; everything else errors back to the application.
func (s *Server) recoverTCPShard(k int) {
	var reissues []pendingCall
	rearm := map[*vsock]bool{}
	for id, call := range s.pending {
		if call.epIdx != 0 || call.shard != k {
			continue
		}
		delete(s.pending, id)
		switch {
		case call.gather != nil:
			g := call.gather
			if g.status == msg.StatusOK {
				g.status = msg.StatusErrAborted
			}
			g.remaining--
			if g.remaining == 0 {
				s.finishGather(g)
			}
		case call.standing:
			if v := s.vsocks[call.sock]; v != nil {
				v.armed[k] = false
				if len(v.waiters) > 0 || v.nonblock {
					rearm[v] = true
				}
			}
		case call.op == msg.OpSockRecv || call.op == msg.OpSockAccept:
			reissues = append(reissues, call)
		default:
			if call.op == msg.OpSockConnect {
				s.noteConnectFailed(call.sock, call.shard)
			}
			rep := msg.Req{ID: call.appID, Op: msg.OpSockReply, Flow: call.sock, Status: msg.StatusErrAborted}
			_ = s.sendToApp(call.epIdx, call.app, rep)
		}
	}
	for _, call := range reissues {
		s.nextID++
		nid := s.nextID
		call.shard = k
		s.pending[nid] = call
		fwd := call.orig
		fwd.ID = nid
		s.tcpBoxes[k].Push(fwd)
	}
	for v := range rearm {
		s.armAccepts(v)
	}
	// Purge queued children the dead shard owned: their pcbs died with it
	// (established state is unrecoverable by design), so handing them to a
	// later accept() would give the app a socket that answers ErrNoSock.
	for _, v := range s.vsocks {
		if len(v.childQ) == 0 {
			continue
		}
		kept := v.childQ[:0]
		for _, child := range v.childQ {
			if s.shardOfFlow(uint32(child.Arg[0])) != k {
				kept = append(kept, child)
			}
		}
		v.childQ = kept
	}
	// Re-announce readiness for the shard's subscribers: every edge in
	// flight to or from the dead incarnation is gone, and a poller that
	// waits for it would deadlock — the recovery contract says spurious
	// re-announced edges, never lost ones. Established sockets on the dead
	// shard are unrecoverable, so their poke carries EvError; the app's
	// next nonblocking op observes the real outcome. The new incarnation
	// also needs the mode bits back for sockets it restored.
	for flow := range s.subsTCP {
		v := s.vsocks[flow]
		if v != nil && v.listening {
			// Listener clones recovered on the new incarnation; childQ for
			// the dead shard was purged above, so just wake the accepter.
			s.pokeEvent(s.subsTCP, flow, msg.EvAcceptReady)
			continue
		}
		if s.shardOfFlow(flow) == k {
			s.pushSetFlags(k, flow)
			s.pokeEvent(s.subsTCP, flow, msg.EvError|msg.EvReadable|msg.EvWritable)
		}
	}
}

// recoverTransport handles a transport server restart: recv-class
// operations are reissued against the new incarnation (they trigger no
// network traffic); everything else gets an error, and the application
// retries or observes the aborted connection.
func (s *Server) recoverTransport(isTCP bool) {
	box := s.udpBox
	if isTCP {
		box = s.tcpBoxes[0]
	}
	// Collect reissues first: inserting into s.pending while ranging over
	// it may make the new entry visible to the same iteration, reissuing
	// the call twice.
	var reissues []pendingCall
	for id, call := range s.pending {
		if !s.callBelongsTo(isTCP, call) {
			continue
		}
		delete(s.pending, id)
		if call.op == msg.OpSockRecv || call.op == msg.OpSockAccept {
			reissues = append(reissues, call)
			continue
		}
		rep := msg.Req{ID: call.appID, Op: msg.OpSockReply, Flow: call.sock, Status: msg.StatusErrAborted}
		_ = s.sendToApp(call.epIdx, call.app, rep)
	}
	for _, call := range reissues {
		s.nextID++
		nid := s.nextID
		s.pending[nid] = call
		fwd := call.orig
		fwd.ID = nid
		box.Push(fwd)
	}
	// Re-announce for subscribers: re-send the mode bits to the new
	// incarnation (UDP restores its sockets, TCP its listeners; SetFlags on
	// a dead socket answers ErrNoSock to an ID nobody waits on) and poke a
	// conservative readiness edge so no poller stays parked on an edge the
	// dead incarnation swallowed. TCP pokes carry EvError because
	// established connections died; UDP sockets survive, so theirs do not.
	if isTCP {
		for flow := range s.subsTCP {
			s.resendSetFlags(box, flow)
			s.pokeEvent(s.subsTCP, flow, msg.EvError|msg.EvReadable|msg.EvWritable|msg.EvAcceptReady)
		}
	} else {
		for flow := range s.subsUDP {
			s.resendSetFlags(box, flow)
			s.pokeEvent(s.subsUDP, flow, msg.EvReadable|msg.EvWritable)
		}
	}
}

// resendSetFlags pushes a nonblocking-mode SetFlags for flow onto box
// (fire-and-forget, unsharded transports).
func (s *Server) resendSetFlags(box *wiring.Edge, flow uint32) {
	s.nextID++
	sf := msg.Req{ID: s.nextID, Op: msg.OpSockSetFlags, Flow: flow}
	sf.Arg[0] = msg.SockNonblock
	box.Push(sf)
}

// callBelongsTo decides which transport a pending call was sent to. The
// SYSCALL server keeps no per-socket table beyond this (it is stateless);
// the frontdoor split makes the mapping unambiguous: each call records the
// endpoint it arrived on, and sockets never migrate between frontdoors.
func (s *Server) callBelongsTo(isTCP bool, call pendingCall) bool {
	if isTCP {
		return call.epIdx == 0
	}
	return call.epIdx == 1
}

// persistShardMeta records that the routing table changed and flushes it at
// once when the pacing rule allows (always, while the table is small);
// otherwise Poll flushes it when the gap has passed, keeping connection
// setup O(1) in the socket count. It only runs on control-plane calls
// (create/bind/listen/connect/close), never on the data path.
func (s *Server) persistShardMeta() {
	s.meta.Mark()
	s.flushShardMetaIfDue()
}

func (s *Server) flushShardMetaIfDue() {
	if s.meta.Take(s.now, len(s.vsocks)) {
		s.flushShardMeta()
	}
}

// shardMeta describes the routing table as it is parked in the storage
// server: the id counter, the round-robin cursor, and per socket its id,
// owner, bound port and mode. Standing accepts and queued children are not
// kept — the next application accept re-arms the shards.
func shardMeta(c *staterec.Codec, nextV *uint32, rr *int, socks *[]*vsock) {
	staterec.Num(c, nextV)
	staterec.Num(c, rr)
	staterec.List(c, socks, 4+8+2+1+1, func(vp **vsock) {
		if c.Reading() {
			*vp = &vsock{}
		}
		v := *vp
		staterec.Num(c, &v.id)
		staterec.Num(c, &v.owner)
		staterec.Num(c, &v.port)
		c.Bool(&v.listening)
		c.Bool(&v.nonblock)
	})
}

// flushShardMeta writes the routing table to the storage server.
func (s *Server) flushShardMeta() {
	socks := slices.Collect(maps.Values(s.vsocks))
	s.ports.Hub().Store.Put(ShardMetaKey, staterec.Encode(func(c *staterec.Codec) {
		shardMeta(c, &s.nextV, &s.rr, &socks)
	}))
}

// loadShardMeta restores the routing table flushShardMeta wrote, after a
// SYSCALL-server restart; on error the server's table is left as it was.
func (s *Server) loadShardMeta(blob []byte) error {
	var nextV uint32
	var rr int
	var socks []*vsock
	err := staterec.Decode(blob, func(c *staterec.Codec) { shardMeta(c, &nextV, &rr, &socks) })
	if err != nil {
		return fmt.Errorf("syscallsrv: shard table: %w", err)
	}
	s.nextV, s.rr = nextV, rr
	for _, v := range socks {
		v.armed = make([]bool, s.nShards)
		s.vsocks[v.id] = v
	}
	return nil
}

// OutboxDropped sums the requests the SYSCALL server's edges shed across
// peer reincarnations (wiring.DropReporter).
func (s *Server) OutboxDropped() uint64 {
	return wiring.SumDropped(s.udpBox, s.pfBox) + wiring.SumDropped(s.tcpBoxes...)
}

// Deadline: the only timer is a held-back shard-table flush.
func (s *Server) Deadline(now time.Time) time.Time {
	return s.meta.Deadline(len(s.vsocks))
}

// Stop closes the frontdoor endpoints.
func (s *Server) Stop() {
	for _, ep := range s.eps {
		ep.Close()
	}
}
