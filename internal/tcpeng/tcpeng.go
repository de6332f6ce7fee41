// Package tcpeng is the TCP protocol engine: a from-scratch, lwIP-class
// TCP with the features the paper's evaluation depends on — three-way
// handshake, sliding-window transfer with flow control, RFC 6298
// retransmission timing with exponential backoff, Reno congestion control,
// the MSS option, zero-copy transmit out of per-socket shared buffers, and
// TCP segmentation offload (TSO) so one channel request can carry 64 KB (the
// decisive optimization of Table II rows 5-6).
//
// Loss recovery is selective (docs/ARCHITECTURE.md "Loss recovery"). The
// receiver keeps out-of-order segments in a per-connection reassembly queue
// (reasm.go) and reports them in SACK blocks; the sender keeps a scoreboard
// of what the peer holds (recovery.go), declares a hole lost on evidence —
// three segments' worth of bytes SACKed above it, three duplicate ACKs from
// a peer without SACK, or the answer to a tail-loss probe — and retransmits
// every lost hole while the pipe has room, with one window reduction per
// episode. The retransmission timeout and an IP restart mark everything the
// peer does not hold as lost on the same scoreboard: there is one recovery
// path and it never resends what was selectively acknowledged.
//
// Recovery semantics follow paper Table I: the engine persists only the
// cheap, rarely-changing part of its state (listening sockets and the
// 4-tuple + state class of connections, which PF needs for conntrack
// rebuild). Established connections die with the server; listening sockets
// are recovered, so new connections can be opened immediately after a TCP
// crash.
//
// Connection scale (docs/ARCHITECTURE.md "Connection scale"): a pcb is an
// ordinary heap object found through two Go maps (socket id, four-tuple),
// the armed timers sit in one binary min-heap (timers.go) that an idle
// connection never enters, TX buffers are provisioned lazily on first use,
// and state persistence is coalesced to one save per Tick and paced by table
// size (state.go) — so both Tick and memory cost scale with active
// connections, not total connections.
package tcpeng

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"newtos/internal/channel"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/staterec"
)

// Protocol constants.
const (
	// MSS is the maximum segment size announced and used (1500 MTU - 40).
	MSS = 1460
	// RcvBufLimit is the receive buffer and therefore the maximum
	// advertised window (no window scaling, as in the paper's lwIP).
	RcvBufLimit = 65535
	// SndBufLimit caps unacknowledged + unsent stream data.
	SndBufLimit = 64 * 1024
	// TSOMaxBurst is the largest oversized segment handed to the device.
	TSOMaxBurst = 64 * 1024
	// InitCwnd is the initial congestion window.
	InitCwnd = 10 * MSS

	minRTO      = 20 * time.Millisecond
	maxRTO      = 2 * time.Second
	delAckDelay = 500 * time.Microsecond
	timeWait    = 200 * time.Millisecond
	synRTO      = 100 * time.Millisecond
)

// State is a TCP connection state.
type State int

// TCP states.
const (
	StateClosed State = iota + 1
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateClosing
	StateCloseWait
	StateLastAck
	StateTimeWait
)

var stateNames = map[State]string{
	StateClosed: "closed", StateListen: "listen", StateSynSent: "syn-sent",
	StateSynRcvd: "syn-rcvd", StateEstablished: "established",
	StateFinWait1: "fin-wait-1", StateFinWait2: "fin-wait-2",
	StateClosing: "closing", StateCloseWait: "close-wait",
	StateLastAck: "last-ack", StateTimeWait: "time-wait",
}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Config wires an engine to its environment.
type Config struct {
	Space   *shm.Space
	LocalIP netpkt.IPAddr
	// SrcFor selects the local source address for a destination
	// (multi-homed hosts; nil means always LocalIP).
	SrcFor func(dst netpkt.IPAddr) netpkt.IPAddr
	// Offload requests checksum offload; TSO additionally enables
	// oversized segments.
	Offload bool
	TSO     bool
	// PublishBuf exports a socket's TX buffer to the application.
	PublishBuf func(sock uint32, buf *sockbuf.Buf)
	// UnpublishBuf retracts a destroyed socket's TX buffer export.
	UnpublishBuf func(sock uint32)
	// SaveState persists the recoverable state (called on transitions).
	SaveState func(blob []byte)
}

// Stats counts engine activity. Retransmits is every data segment emitted
// that re-covers bytes already sent once (a TSO burst counts once, as it does
// in SegsOut); FastRetx is recovery episodes entered on SACK or duplicate-ACK
// evidence, RTOs retransmission timeouts, Probes tail-loss probes. OOOQueued
// is out-of-order segments taken into a reassembly queue; DropsOOO is
// out-of-order data refused (beyond the window, or overlapping what is held).
type Stats struct {
	SegsOut, SegsIn                 uint64
	BytesOut, BytesIn               uint64
	Retransmits, FastRetx           uint64
	RTOs, Probes                    uint64
	RSTsSent, RSTsIn                uint64
	DupAcksIn                       uint64
	ConnsOpened, ConnsAccepted      uint64
	SendsResubmitted                uint64
	OOOQueued                       uint64
	DropsOOO, DropsDup, DropsWindow uint64
}

// fourTuple keys the connection index. The local IP is not part of it
// (engine instances are per-host and a port is used towards one remote
// endpoint at most once).
type fourTuple struct {
	localPort  uint16
	remoteIP   netpkt.IPAddr
	remotePort uint16
}

// streamChunk is one app-written chunk in the send stream.
type streamChunk struct {
	seq uint32 // sequence number of first byte
	ptr shm.RichPtr
}

// rxItem is one received payload range, still living in IP's receive pool.
type rxItem struct {
	payload   shm.RichPtr
	deliverID uint64
	consumed  uint32
}

type pcb struct {
	id    uint32
	state State
	fourTuple
	localIP   netpkt.IPAddr
	bound     bool
	portEphem bool // localPort came from autobind (refcounted, not exclusive)

	// Send state. sndNxt only ever advances: retransmissions are driven by
	// the scoreboard below, not by rewinding it.
	iss, sndUna, sndNxt uint32
	sndWnd              uint32 // peer's advertised window
	cwnd, ssthresh      uint32
	mss                 uint16
	sackOK              bool          // both ends sent SACK-permitted
	stream              []streamChunk // retained until acked
	streamEnd           uint32        // seq after last byte in stream
	finSeq              uint32
	finQueued, finSent  bool

	// RTT estimation (Karn: never from a recovery episode or a probed tail).
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoAt        time.Time // the retransmission timer: an RTO, or a probe timeout (probe)
	rttStart     time.Time
	rttSeq       uint32 // sequence being timed; 0 = none
	retxPending  int32  // frames re-covering already-sent bytes still at the NIC
	retxCount    int    // consecutive RTO fires without an advancing ACK
	dupAcks      int

	// Loss recovery (recovery.go). sacked is the scoreboard: what the peer
	// holds above sndUna. The other four only mean something inRecovery.
	sacked     []seqRange
	recover    uint32 // sndNxt when the episode began; it ends when sndUna gets there
	lostTo     uint32 // un-SACKed bytes below this are lost
	rxtNxt     uint32 // lost bytes below this were retransmitted in this episode
	inRecovery bool
	probe      uint8 // tail-loss probe state (probeIdle, probeArmed, probeSent)

	// Per timer kind, the position in Engine.timers plus one (timers.go);
	// 0 = disarmed.
	heapPos [numTimers]int32

	// Receive state. oooQ is the reassembly queue (reasm.go): segments that
	// arrived above rcvNxt, inside the advertised window.
	irs, rcvNxt uint32
	rcvQ        []rxItem
	oooQ        []oooSeg
	rcvQueued   uint32 // bytes queued in rcvQ (unconsumed)
	oooClock    uint32 // stamps oooQ arrivals, for SACK block order
	finAt       uint32 // where a FIN that arrived behind a hole sits (finHeld)
	finHeld     bool
	finRcvd     bool
	delAckAt    time.Time
	ackPending  int // segments since last ack

	// App interface.
	buf *sockbuf.Buf
	// nonblock makes accept/recv/connect reply StatusErrAgain instead of
	// parking, and turns on edge-triggered OpSockEvent publication.
	nonblock bool
	// connStatus is the sticky outcome of a failed nonblocking connect
	// (the app learns it by re-issuing OpSockConnect).
	connStatus     int32
	pendingRecv    uint64
	pendingConnect uint64
	pendingAccept  []uint64 // parked accepts (listeners)
	acceptQ        []uint32 // established children (listeners)
	backlog        int
	listenerID     uint32 // for children: the listener that spawned us
	timeWaitAt     time.Time
	reset          bool // connection was reset
}

// timerAt returns the deadline field backing one timer kind.
func (p *pcb) timerAt(kind int) *time.Time {
	switch kind {
	case timerRTO:
		return &p.rtoAt
	case timerDelAck:
		return &p.delAckAt
	}
	return &p.timeWaitAt
}

// Engine is one TCP instance. Single-threaded.
type Engine struct {
	cfg     Config
	hdrPool *shm.Pool
	db      *channel.ReqDB

	byID      map[uint32]*pcb
	byTuple   map[fourTuple]*pcb
	listeners map[uint16]uint32
	ports     portTable
	timers    timerHeap

	// deliverRefs counts receive-queue items still referencing a deliver
	// cookie. GRO-merged deliveries carry several payload views under one
	// cookie; OpIPDeliverDone must go back exactly once, after the last one.
	deliverRefs map[uint64]int
	// retxFrames maps an in-flight OpIPSend id to its pcb id for frames
	// that re-cover already-sent bytes: their connection's ring recycle is
	// deferred until they complete at the NIC (see recycleAcked).
	retxFrames map[uint64]uint32
	// spans is processData's scratch: the payload views of the delivery in
	// hand, shared by the in-order and the reassembly path.
	spans    []paySpan
	next     uint32
	issClock uint32

	toIP    []msg.Req
	toFront []msg.Req
	// The arrays the outboxes were last drained from: each Drain hands its
	// outbox out and continues on the spare. Not part of the state image.
	toIPSpare, toFrontSpare []msg.Req

	stats Stats
	now   time.Time // updated at every entry point

	// save paces SaveState flushes (staterec.Gap of the socket count).
	save staterec.Pacer

	// tickCount/tickNanos are cumulative Tick invocations and time spent in
	// them, atomics so experiments can sample per-Tick cost from outside
	// the server loop.
	tickCount atomic.Uint64
	tickNanos atomic.Uint64
}

// New creates a TCP engine; hdrPool holds in-flight segment headers.
func New(cfg Config, hdrPool *shm.Pool) *Engine {
	e := &Engine{
		cfg:         cfg,
		hdrPool:     hdrPool,
		db:          channel.NewReqDB(),
		byID:        make(map[uint32]*pcb),
		byTuple:     make(map[fourTuple]*pcb),
		listeners:   make(map[uint16]uint32),
		deliverRefs: make(map[uint64]int),
		retxFrames:  make(map[uint64]uint32),
		next:        2000,
		issClock:    1,
	}
	return e
}

// allocID returns the next socket id.
func (e *Engine) allocID() uint32 {
	e.next++
	return e.next
}

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// TickStats returns cumulative Tick invocations and nanoseconds spent in
// them. Safe to call from other goroutines (atomics): experiments sample
// deltas to measure per-Tick cost at different connection counts.
func (e *Engine) TickStats() (count, nanos uint64) {
	return e.tickCount.Load(), e.tickNanos.Load()
}

// srcFor picks the local address used towards dst.
func (e *Engine) srcFor(dst netpkt.IPAddr) netpkt.IPAddr {
	if e.cfg.SrcFor != nil {
		return e.cfg.SrcFor(dst)
	}
	return e.cfg.LocalIP
}

// NumSockets returns the live socket count.
func (e *Engine) NumSockets() int { return len(e.byID) }

// NumBuffers returns how many sockets hold a TX buffer: a socket holds one
// from its first send until its FIN is acknowledged.
func (e *Engine) NumBuffers() int {
	n := 0
	for _, p := range e.byID {
		if p.buf != nil {
			n++
		}
	}
	return n
}

// pcbOf resolves a socket id; nil when unknown.
func (e *Engine) pcbOf(id uint32) *pcb { return e.byID[id] }

// SocketState returns a socket's connection state.
func (e *Engine) SocketState(id uint32) (State, bool) {
	p := e.pcbOf(id)
	if p == nil {
		return StateClosed, false
	}
	return p.state, true
}

// armTimer sets a pcb timer's deadline and files it in the heap.
func (e *Engine) armTimer(p *pcb, kind int, at time.Time) {
	*p.timerAt(kind) = at
	e.timers.set(p, kind)
}

// disarmTimer clears a pcb timer and takes it out of the heap.
func (e *Engine) disarmTimer(p *pcb, kind int) {
	*p.timerAt(kind) = zeroTime
	e.timers.remove(p, kind)
}

// disarmAll clears every timer of a pcb (park, destroy).
func (e *Engine) disarmAll(p *pcb) {
	for k := 0; k < numTimers; k++ {
		e.disarmTimer(p, k)
	}
}

// DrainToIP returns and clears the pending requests towards IP. The returned
// slice is valid until the next DrainToIP.
func (e *Engine) DrainToIP() []msg.Req {
	return msg.Drain(&e.toIP, &e.toIPSpare)
}

// DrainToFront returns and clears the pending replies towards the frontdoor.
// The returned slice is valid until the next DrainToFront.
func (e *Engine) DrainToFront() []msg.Req {
	return msg.Drain(&e.toFront, &e.toFrontSpare)
}

// FromFront handles one application request.
func (e *Engine) FromFront(r msg.Req, now time.Time) {
	e.now = now
	switch r.Op {
	case msg.OpSockCreate:
		e.create(r)
	case msg.OpSockBind:
		e.bind(r)
	case msg.OpSockListen:
		e.listen(r)
	case msg.OpSockAccept:
		e.accept(r)
	case msg.OpSockConnect:
		e.connect(r)
	case msg.OpSockSend:
		e.send(r)
	case msg.OpSockRecv:
		e.recv(r)
	case msg.OpSockRecvDone:
		e.recvDone(r)
	case msg.OpSockSetFlags:
		e.setFlags(r)
	case msg.OpSockBufEnsure:
		e.bufEnsure(r)
	case msg.OpSockClose:
		e.closeSock(r)
	default:
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrInval))
	}
}

// FromIP handles one message from the IP server.
func (e *Engine) FromIP(r msg.Req, now time.Time) {
	e.now = now
	switch r.Op {
	case msg.OpIPDeliver:
		e.segmentIn(r)
	case msg.OpIPSendDone:
		e.sendDone(r)
	default:
		// IP only sends Deliver/SendDone; ignore anything else rather
		// than corrupt connection state.
	}
}

func (e *Engine) reply(id uint64, flow uint32, status int32) {
	e.toFront = append(e.toFront, msg.Req{ID: id, Op: msg.OpSockReply, Flow: flow, Status: status})
}

// event publishes an edge-triggered readiness event for a nonblocking
// socket. Events ride the same ordered queue as replies, so an app never
// observes an event "from the future" relative to its replies.
func (e *Engine) event(p *pcb, bits uint64) {
	if !p.nonblock || bits == 0 {
		return
	}
	ev := msg.Req{Op: msg.OpSockEvent, Flow: p.id}
	ev.Arg[0] = bits
	e.toFront = append(e.toFront, ev)
}

// setFlags switches a socket's mode. Entering nonblocking mode re-announces
// the socket's CURRENT readiness as an event: edges that fired before the
// subscription would otherwise be lost, and a poller armed late would
// deadlock (the same level-check every epoll-style API performs on arm).
func (e *Engine) setFlags(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		e.reply(r.ID, r.Flow, msg.StatusErrNoSock)
		return
	}
	p.nonblock = r.Arg[0]&msg.SockNonblock != 0
	e.reply(r.ID, r.Flow, msg.StatusOK)
	if !p.nonblock {
		return
	}
	e.event(p, p.readiness())
}

// create opens a socket under the next id.
func (e *Engine) create(r msg.Req) {
	id := e.allocID()
	p := &pcb{id: id, state: StateClosed, mss: MSS}
	e.byID[id] = p
	rep := r.Reply(msg.OpSockReply, msg.StatusOK)
	rep.Flow = p.id
	e.toFront = append(e.toFront, rep)
}

func (e *Engine) bind(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		e.reply(r.ID, r.Flow, msg.StatusErrNoSock)
		return
	}
	port := uint16(r.Arg[0])
	if !e.ports.reserve(port) {
		e.reply(r.ID, r.Flow, msg.StatusErrInUse)
		return
	}
	p.localPort = port
	p.bound = true
	p.portEphem = false
	e.reply(r.ID, r.Flow, msg.StatusOK)
}

func (e *Engine) listen(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil || !p.bound {
		e.reply(r.ID, r.Flow, msg.StatusErrInval)
		return
	}
	p.state = StateListen
	p.backlog = int(r.Arg[0])
	if p.backlog <= 0 {
		p.backlog = 8
	}
	e.listeners[p.localPort] = p.id
	e.reply(r.ID, r.Flow, msg.StatusOK)
	e.persist()
}

func (e *Engine) accept(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil || p.state != StateListen {
		e.reply(r.ID, r.Flow, msg.StatusErrInval)
		return
	}
	if len(p.acceptQ) > 0 {
		child := p.acceptQ[0]
		p.acceptQ = p.acceptQ[1:]
		e.replyAccept(r.ID, p.id, child)
		return
	}
	if p.nonblock {
		e.reply(r.ID, r.Flow, msg.StatusErrAgain)
		return
	}
	p.pendingAccept = append(p.pendingAccept, r.ID)
}

// replyConnected completes a connect with the engine-chosen local port in
// Arg[1], so the application can report its local address.
func (e *Engine) replyConnected(frontID uint64, p *pcb) {
	rep := msg.Req{ID: frontID, Op: msg.OpSockReply, Flow: p.id, Status: msg.StatusOK}
	rep.Arg[1] = uint64(p.localPort)
	e.toFront = append(e.toFront, rep)
}

func (e *Engine) replyAccept(frontID uint64, listener, child uint32) {
	c := e.pcbOf(child)
	rep := msg.Req{ID: frontID, Op: msg.OpSockReply, Flow: listener, Status: msg.StatusOK}
	rep.Arg[0] = uint64(child)
	rep.Arg[1] = uint64(c.remoteIP.U32())
	rep.Arg[2] = uint64(c.remotePort)
	e.toFront = append(e.toFront, rep)
}

// autobind picks an ephemeral port for the already-set remote endpoint. A
// port qualifies when it is not exclusively reserved (bind/listen) and the
// exact four-tuple is free. Ports are reused across distinct
// remote endpoints (per-destination reuse), so the connection capacity is
// ports × remotes, not 2^16; a rotating cursor keeps the search O(1)
// amortized instead of rescanning from the range start.
func (e *Engine) autobind(p *pcb) {
	const span = uint32(ephemHigh - ephemLow + 1)
	if e.ports.cursor < ephemLow {
		e.ports.cursor = ephemLow
	}
	start := uint32(e.ports.cursor - ephemLow)
	for i := uint32(0); i < span; i++ {
		port := uint16(ephemLow + (start+i)%span)
		if e.ports.isReserved(port) {
			continue
		}
		if e.byTuple[fourTuple{port, p.remoteIP, p.remotePort}] != nil {
			continue
		}
		p.localPort, p.bound, p.portEphem = port, true, true
		e.ports.ephemAcquire(port)
		next := port + 1
		if next < ephemLow {
			next = ephemLow
		}
		e.ports.cursor = next
		return
	}
}

func (e *Engine) connect(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		e.reply(r.ID, r.Flow, msg.StatusErrNoSock)
		return
	}
	// A nonblocking connect completes across calls: the first starts the
	// handshake and replies EAGAIN, later calls poll its outcome (the
	// getsockopt(SO_ERROR) of this API). Failure statuses READ-CLEAR, like
	// SO_ERROR: once the app has been told, the next connect re-dials —
	// the classic retry-until-the-server-is-up loop must keep working.
	if p.connStatus != 0 {
		st := p.connStatus
		p.connStatus = 0
		p.reset = false
		e.reply(r.ID, p.id, st)
		return
	}
	switch p.state {
	case StateSynSent, StateSynRcvd:
		e.reply(r.ID, p.id, msg.StatusErrAgain)
		return
	case StateEstablished, StateCloseWait:
		e.replyConnected(r.ID, p)
		return
	case StateClosed:
		if p.reset {
			p.reset = false
			e.reply(r.ID, p.id, msg.StatusErrConnRst)
			return
		}
	default:
		e.reply(r.ID, r.Flow, msg.StatusErrInval)
		return
	}
	p.remoteIP = netpkt.IPFromU32(uint32(r.Arg[0]))
	p.remotePort = uint16(r.Arg[1])
	if !p.bound {
		// Remote endpoint first: ports are reused across remotes.
		e.autobind(p)
		if !p.bound {
			// Ephemeral range exhausted towards this remote: fail loudly
			// instead of SYNing from port 0.
			e.reply(r.ID, r.Flow, msg.StatusErrNoBufs)
			return
		}
	}
	p.localIP = e.srcFor(p.remoteIP)
	key := fourTuple{localPort: p.localPort, remoteIP: p.remoteIP, remotePort: p.remotePort}
	if e.byTuple[key] != nil {
		e.reply(r.ID, r.Flow, msg.StatusErrInUse)
		return
	}
	p.fourTuple = key
	e.byTuple[key] = p
	e.initSendState(p)
	p.state = StateSynSent
	if p.nonblock {
		// In progress: the app polls with another connect, or waits for
		// the EvWritable/EvError edge.
		e.reply(r.ID, p.id, msg.StatusErrAgain)
	} else {
		p.pendingConnect = r.ID
	}
	p.sackOK = true // offered; the SYN-ACK says whether the peer agrees
	e.emitSegment(p, netpkt.TCPSyn, p.iss, nil, 0, true)
	p.sndNxt = p.iss + 1
	p.rto = synRTO
	e.armTimer(p, timerRTO, e.now.Add(p.rto))
	e.stats.ConnsOpened++
	e.persist()
}

func (e *Engine) initSendState(p *pcb) {
	e.issClock += 64013
	p.iss = e.issClock
	p.sndUna, p.sndNxt, p.streamEnd = p.iss, p.iss, p.iss+1 // +1 for SYN
	p.cwnd, p.ssthresh = InitCwnd, RcvBufLimit
	p.rto = synRTO
	p.sndWnd = MSS
}

// bufEnsure creates and publishes the socket's TX buffer. Buffers are
// provisioned lazily — the socket layer issues OpSockBufEnsure when its
// first send finds no published buffer — so an idle connection holds no TX
// buffer memory at all; releaseSentBuf takes it back once the FIN is
// acknowledged. A socket whose FIN is queued can send nothing more, so it
// gets no buffer: NotConn, as a send there answers. Memory that cannot be
// provisioned is NoBufs, which the app hears as an error, not as a reason
// to wait.
func (e *Engine) bufEnsure(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		e.reply(r.ID, r.Flow, msg.StatusErrNoSock)
		return
	}
	if p.finQueued {
		e.reply(r.ID, r.Flow, msg.StatusErrNotConn)
		return
	}
	if p.buf == nil {
		// Elastic: the socket starts at sockbuf.ElasticBaseChunks and grows
		// on demand to sockbuf.DefaultChunks — socket memory scales with
		// the sockets that send, not the worst case.
		buf, err := sockbuf.NewElastic(e.cfg.Space, "tcp.sock."+strconv.FormatUint(uint64(p.id), 10),
			sockbuf.DefaultChunkSize, sockbuf.ElasticBaseChunks, sockbuf.DefaultChunks)
		if err != nil {
			e.reply(r.ID, r.Flow, msg.StatusErrNoBufs)
			return
		}
		p.buf = buf
		if e.cfg.PublishBuf != nil {
			e.cfg.PublishBuf(p.id, buf)
		}
	}
	e.reply(r.ID, r.Flow, msg.StatusOK)
}

func (e *Engine) send(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		e.reply(r.ID, r.Flow, msg.StatusErrNoSock)
		return
	}
	switch p.state {
	case StateEstablished, StateCloseWait:
	default:
		if p.reset {
			e.reply(r.ID, r.Flow, msg.StatusErrConnRst)
		} else {
			e.reply(r.ID, r.Flow, msg.StatusErrNotConn)
		}
		e.recycleChain(p, r)
		return
	}
	if p.finQueued {
		e.reply(r.ID, r.Flow, msg.StatusErrInval)
		e.recycleChain(p, r)
		return
	}
	if p.buf == nil {
		// A chain can only be staged in the socket's buffer, which
		// OpSockBufEnsure provisions first: these chunks are not the
		// socket's, and there is no ring to hand them back to.
		e.reply(r.ID, r.Flow, msg.StatusErrInval)
		return
	}
	total := 0
	for _, ptr := range r.Chain() {
		p.stream = append(p.stream, streamChunk{seq: p.streamEnd, ptr: ptr})
		p.streamEnd += ptr.Len
		total += int(ptr.Len)
	}
	rep := msg.Req{ID: r.ID, Op: msg.OpSockReply, Flow: p.id, Status: msg.StatusOK}
	rep.Arg[0] = uint64(total)
	e.toFront = append(e.toFront, rep)
	e.output(p)
}

// recycleChain returns a rejected send request's staged chunks to the
// socket's supply ring. Without this, every rejected send leaks the app's
// buffer space — the app cannot recycle (the transport is the ring's only
// producer), so rejection must hand the chunks back here.
func (e *Engine) recycleChain(p *pcb, r msg.Req) {
	if p.buf == nil {
		return
	}
	for _, ptr := range r.Chain() {
		p.buf.Recycle(ptr)
	}
}

func (e *Engine) recv(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		e.reply(r.ID, r.Flow, msg.StatusErrNoSock)
		return
	}
	if p.reset {
		e.reply(r.ID, r.Flow, msg.StatusErrConnRst)
		return
	}
	if p.rcvQueued > 0 {
		e.replyRecv(r.ID, p)
		return
	}
	if p.finRcvd || p.state == StateClosed {
		// EOF.
		rep := msg.Req{ID: r.ID, Op: msg.OpSockRecvData, Flow: p.id, Status: msg.StatusOK}
		e.toFront = append(e.toFront, rep)
		return
	}
	if p.nonblock || p.pendingRecv != 0 {
		e.reply(r.ID, r.Flow, msg.StatusErrAgain)
		return
	}
	p.pendingRecv = r.ID
}

// replyRecv hands up to MaxPtrs unconsumed ranges to the app.
func (e *Engine) replyRecv(frontID uint64, p *pcb) {
	rep := msg.Req{ID: frontID, Op: msg.OpSockRecvData, Flow: p.id, Status: msg.StatusOK}
	var ptrs []shm.RichPtr
	total := uint32(0)
	for i := range p.rcvQ {
		if len(ptrs) == msg.MaxPtrs {
			break
		}
		item := &p.rcvQ[i]
		if item.consumed >= item.payload.Len {
			continue
		}
		ptrs = append(ptrs, item.payload.Slice(item.consumed, item.payload.Len))
		total += item.payload.Len - item.consumed
	}
	rep.SetChain(ptrs)
	rep.Arg[0] = uint64(total)
	e.toFront = append(e.toFront, rep)
}

// recvDone: the app consumed Arg0 bytes of previously returned data; IP
// buffers that are fully consumed are released and the window reopens.
func (e *Engine) recvDone(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		return
	}
	n := uint32(r.Arg[0])
	oldWnd := e.rcvWnd(p)
	for n > 0 && len(p.rcvQ) > 0 {
		item := &p.rcvQ[0]
		avail := item.payload.Len - item.consumed
		take := n
		if take > avail {
			take = avail
		}
		item.consumed += take
		p.rcvQueued -= take
		n -= take
		if item.consumed >= item.payload.Len {
			e.releaseDeliver(item.deliverID)
			p.rcvQ = p.rcvQ[1:]
		}
	}
	// Window update: if we were closed/nearly closed and opened up, tell
	// the peer.
	if oldWnd < MSS && e.rcvWnd(p) >= MSS {
		e.sendAck(p)
	}
}

func (e *Engine) rcvWnd(p *pcb) uint32 {
	if p.rcvQueued >= RcvBufLimit {
		return 0
	}
	return RcvBufLimit - p.rcvQueued
}

func (e *Engine) closeSock(r msg.Req) {
	p := e.pcbOf(r.Flow)
	if p == nil {
		e.reply(r.ID, r.Flow, msg.StatusErrNoSock)
		return
	}
	switch p.state {
	case StateListen:
		delete(e.listeners, p.localPort)
		for _, id := range p.pendingAccept {
			e.reply(id, p.id, msg.StatusErrAborted)
		}
		e.destroy(p)
		e.persist()
	case StateClosed:
		e.destroy(p)
	case StateSynSent:
		if p.pendingConnect != 0 {
			e.reply(p.pendingConnect, p.id, msg.StatusErrAborted)
		}
		e.destroy(p)
	case StateEstablished:
		e.queueFin(p)
		p.state = StateFinWait1
	case StateCloseWait:
		e.queueFin(p)
		p.state = StateLastAck
	default:
		// Already closing.
	}
	e.reply(r.ID, r.Flow, msg.StatusOK)
}

func (e *Engine) queueFin(p *pcb) {
	p.finQueued = true
	p.finSeq = p.streamEnd
	p.streamEnd++
	e.output(p)
	e.persist()
}

// parkFailed tears a connection down but keeps the pcb visible as failed,
// so the app can learn the outcome (and re-dial: the status read-clears).
// Timers are disarmed — a parked pcb must never re-enter rtoFire, which
// would spam EvError events and re-poison the read-cleared status — and
// the socket's pcb, id, port, and buffer are retained: the app still
// holds the socket, so autobind must not hand its port to someone else
// before the close.
func (e *Engine) parkFailed(p *pcb, status int32) {
	e.releaseRx(p)
	e.dropTuple(p)
	e.disarmAll(p)
	p.retxCount = 0
	p.sacked, p.inRecovery, p.probe = nil, false, probeIdle
	p.state = StateClosed
	p.reset = true
	if status != 0 && p.connStatus == 0 && p.pendingConnect == 0 {
		p.connStatus = status
	}
}

// dropTuple removes the pcb's four-tuple index entry — but only while it
// still points at this pcb: a parked pcb's old tuple may have been
// re-claimed by a newer connection, whose index entry must survive.
func (e *Engine) dropTuple(p *pcb) {
	if e.byTuple[p.fourTuple] == p {
		delete(e.byTuple, p.fourTuple)
	}
	p.fourTuple = fourTuple{}
}

// destroy removes a pcb entirely: receive-pool references are released,
// the port reservation is dropped (listener ports stay reserved until the
// listener closes), a TX buffer still held is released (releaseBuf), and
// the pcb leaves the id index. Its timers are disarmed, so the heap holds
// nothing of it.
func (e *Engine) destroy(p *pcb) {
	e.releaseRx(p)
	if p.bound && p.state != StateListen {
		if p.portEphem {
			e.ports.ephemRelease(p.localPort)
		} else if _, isListener := e.listeners[p.localPort]; !isListener {
			// Keep listener ports reserved until the listener closes.
			e.ports.unreserve(p.localPort)
		}
	}
	e.dropTuple(p)
	e.disarmAll(p)
	e.releaseBuf(p)
	p.state = StateClosed
	delete(e.byID, p.id)
}

// releaseBuf gives a socket's TX buffer back: its backing pool leaves the
// shared space and its registry export is withdrawn.
func (e *Engine) releaseBuf(p *pcb) {
	if p.buf == nil {
		return
	}
	p.buf.Destroy(e.cfg.Space)
	if e.cfg.UnpublishBuf != nil {
		e.cfg.UnpublishBuf(p.id)
	}
	p.buf = nil
}

// releaseSentBuf releases the TX buffer of a socket whose FIN is
// acknowledged: every byte before it is acknowledged too, and the app, which
// queued the FIN by closing, sends nothing more. While a retransmitted copy
// is still at the NIC (emit) the buffer stays, and retxDone calls this again
// when the last one completes.
func (e *Engine) releaseSentBuf(p *pcb) {
	if p.retxPending == 0 && p.finSent && netpkt.SeqLT(p.finSeq, p.sndUna) {
		e.releaseBuf(p)
	}
}

// releaseRx gives back every receive-pool reference a connection holds,
// delivered or still waiting for a hole to fill.
func (e *Engine) releaseRx(p *pcb) {
	for _, item := range p.rcvQ {
		e.releaseDeliver(item.deliverID)
	}
	for _, held := range p.oooQ {
		e.releaseDeliver(held.deliverID)
	}
	p.rcvQ, p.rcvQueued = nil, 0
	p.oooQ, p.finHeld = nil, false
}

// retainDeliver records one more receive-queue reference to a deliver
// cookie (a GRO-merged delivery is retained once per queued payload view).
func (e *Engine) retainDeliver(id uint64) {
	if id != 0 {
		e.deliverRefs[id]++
	}
}

func (e *Engine) releaseDeliver(id uint64) {
	if id == 0 {
		return
	}
	if n := e.deliverRefs[id]; n > 1 {
		e.deliverRefs[id] = n - 1
		return
	}
	delete(e.deliverRefs, id)
	e.toIP = append(e.toIP, msg.Req{ID: id, Op: msg.OpIPDeliverDone})
}

// OnFrontRestart drops operations parked for a dead frontdoor incarnation
// (SYSCALL server or direct-front shim): their reply IDs belong to a
// requester that no longer exists, so completing them would either be
// dropped or — worse — consume an accepted connection the new incarnation
// never learns about. Accepted children stay in their listeners' accept
// queues for the new incarnation's reissued accepts. The restart also
// dropped every event staged towards the dead incarnation (the edge's
// restart rule), so each nonblocking socket's current readiness is
// re-announced, as installPCB does after a live update.
func (e *Engine) OnFrontRestart() {
	for _, p := range e.byID {
		p.pendingAccept = nil
		p.pendingRecv = 0
		e.event(p, p.readiness())
	}
}

// OnIPRestart is the recovery action for a reincarnated IP server: the
// deliver cookies of the dead incarnation are forgotten, the sends in flight
// to it are aborted, and every connection with unacknowledged data
// retransmits what the peer does not hold at once, with fresh request IDs,
// instead of waiting out an RTO ("it is much more important that we quickly
// retransmit (possibly) lost packets to avoid the error detection and
// congestion avoidance"). It is the RTO's marking without the RTO's window
// reduction: a crashed IP server is not congestion.
func (e *Engine) OnIPRestart() {
	for _, p := range e.byID {
		// Unconsumed receive data stays queued, views and all: only the
		// cookies, which the new IP does not know, are zeroed. The bytes
		// were ACKed, so nobody resends them; while their pool exists the
		// app still reads them, and a view whose pool is gone fails the
		// app's read with ErrAborted (sock) — the "connection damage" an
		// IP crash can cause.
		for i := range p.rcvQ {
			p.rcvQ[i].deliverID = 0 // old IP is gone; nothing to release to
		}
		for i := range p.oooQ {
			p.oooQ[i].deliverID = 0
		}
	}
	e.deliverRefs = make(map[uint64]int) // the cookies died with the pool
	e.db.AbortDest("ip")
	for _, p := range e.byID {
		if p.sndNxt != p.sndUna && p.state.sends() {
			e.stats.SendsResubmitted++
			e.markAllLost(p)
			e.output(p)
		}
	}
}
