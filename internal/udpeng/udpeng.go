// Package udpeng is the UDP protocol engine: sockets, datagram
// transmit/receive, and the small, rarely-changing per-socket state whose
// recoverability makes UDP one of the easy components to restart
// (paper Table I: "Small state per socket, low frequency of change, easy to
// store safely").
//
// The engine speaks the stack's channel vocabulary (msg.Req) directly; the
// UDP server (package udpsrv) moves requests between channels and the
// engine.
package udpeng

import (
	"encoding/binary"
	"strconv"

	"newtos/internal/channel"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// Config wires an engine to its environment.
type Config struct {
	// Space resolves rich pointers.
	Space *shm.Space
	// LocalIP is the host address used as the source of outgoing
	// datagrams.
	LocalIP netpkt.IPAddr
	// SrcFor selects the source for a destination on multi-homed hosts
	// (nil means always LocalIP).
	SrcFor func(dst netpkt.IPAddr) netpkt.IPAddr
	// Offload requests L4 checksum offload from the device instead of
	// computing checksums in software.
	Offload bool
	// PublishBuf exports a socket's TX buffer to the application (via the
	// registry in the real assembly). May be nil in tests.
	PublishBuf func(sock uint32, buf *sockbuf.Buf)
	// UnpublishBuf retracts a closed socket's TX buffer export. May be nil
	// in tests.
	UnpublishBuf func(sock uint32)
	// SaveState persists the socket table for crash recovery. May be nil.
	SaveState func(blob []byte)
}

// recvQueueCap bounds per-socket queued datagrams; overflow is dropped, as
// datagram semantics allow.
const recvQueueCap = 64

// MaxPayload is the largest datagram payload UDP over IPv4 carries (65 507
// B): the IP total length, a 16-bit field, less the IP and UDP headers. A
// longer send is refused, not truncated by the header's length field.
const MaxPayload = 0xffff - netpkt.IPv4HeaderLen - netpkt.UDPHeaderLen

// Engine is one UDP instance. Single-threaded.
type Engine struct {
	cfg     Config
	hdrPool *shm.Pool
	db      *channel.ReqDB

	sockets map[uint32]*socket
	byPort  map[uint16]uint32
	next    uint32
	// closing holds closed sockets that still have sends in flight to IP:
	// the datagrams must leave the node, so the TX buffer they point into
	// is destroyed when the last of them completes.
	closing map[uint32]*socket

	toIP    []msg.Req
	toFront []msg.Req
	// The arrays the outboxes were last drained from: each Drain hands its
	// outbox out and continues on the spare. Not part of the state image.
	toIPSpare, toFrontSpare []msg.Req
	// dirty marks a socket-table change that Tick has yet to save.
	dirty bool

	stats Stats
}

// Stats counts engine activity.
type Stats struct {
	DatagramsOut, DatagramsIn uint64
	DroppedNoSocket           uint64
	DroppedQueueFull          uint64
	DroppedWrongSource        uint64
	SendsAborted              uint64
	Resubmitted               uint64
}

type socket struct {
	id        uint32
	port      uint16
	bound     bool
	remoteIP  netpkt.IPAddr
	remotePt  uint16
	connected bool
	// nonblock makes recv reply StatusErrAgain instead of parking and
	// turns on edge-triggered OpSockEvent publication.
	nonblock bool

	buf         *sockbuf.Buf
	inflight    int // sends handed to IP and not yet completed
	recvQ       []rxItem
	pendingRecv uint64 // parked front request ID, 0 = none
}

type rxItem struct {
	srcIP     netpkt.IPAddr
	srcPort   uint16
	payload   shm.RichPtr
	deliverID uint64
}

type pendingSend struct {
	frontID uint64
	sock    uint32
	hdr     shm.RichPtr
	payload []shm.RichPtr
	dstIP   netpkt.IPAddr
	dstPort uint16
}

// New creates a UDP engine. hdrPool must be owned by the caller's server
// (headers are built in it and freed on send completion).
func New(cfg Config, hdrPool *shm.Pool) *Engine {
	return &Engine{
		cfg:     cfg,
		hdrPool: hdrPool,
		db:      channel.NewReqDB(),
		sockets: make(map[uint32]*socket),
		byPort:  make(map[uint16]uint32),
		closing: make(map[uint32]*socket),
		next:    1000,
	}
}

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) srcFor(dst netpkt.IPAddr) netpkt.IPAddr {
	if e.cfg.SrcFor != nil {
		return e.cfg.SrcFor(dst)
	}
	return e.cfg.LocalIP
}

// NumSockets returns the live socket count.
func (e *Engine) NumSockets() int { return len(e.sockets) }

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

// FromFront handles one application request (via SYSCALL server or direct).
func (e *Engine) FromFront(r msg.Req) {
	switch r.Op {
	case msg.OpSockCreate:
		e.create(r)
	case msg.OpSockBind:
		e.bind(r)
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
	case msg.OpSockClose:
		e.close(r)
	default:
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrInval))
	}
}

// FromIP handles one message from the IP server.
func (e *Engine) FromIP(r msg.Req) {
	switch r.Op {
	case msg.OpIPDeliver:
		e.deliver(r)
	case msg.OpIPSendDone:
		e.sendDone(r)
	default:
		// IP only sends Deliver/SendDone; ignore anything else rather
		// than corrupt socket state.
	}
}

// Tick is the one place the socket table is saved: once per iteration at
// most, after the iteration's intake and before its replies leave. The
// server loop calls it once per iteration.
func (e *Engine) Tick() {
	if e.dirty {
		e.dirty = false
		if blob, err := e.SaveState(); err == nil {
			e.cfg.SaveState(blob)
		}
	}
}

// newBuf provisions one socket's shared TX buffer: a small base complement
// that grows on demand up to sockbuf.DefaultChunks, so socket memory scales
// with the sockets that send.
func (e *Engine) newBuf(owner string) (*sockbuf.Buf, error) {
	return sockbuf.NewElastic(e.cfg.Space, owner,
		sockbuf.DefaultChunkSize, sockbuf.ElasticBaseChunks, sockbuf.DefaultChunks)
}

func (e *Engine) create(r msg.Req) {
	e.next++
	id := e.next
	s := &socket{id: id}
	buf, err := e.newBuf("udp.sock." + strconv.FormatUint(uint64(id), 10))
	if err != nil {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoBufs))
		return
	}
	s.buf = buf
	e.sockets[id] = s
	if e.cfg.PublishBuf != nil {
		e.cfg.PublishBuf(id, buf)
	}
	rep := r.Reply(msg.OpSockReply, msg.StatusOK)
	rep.Flow = id
	e.toFront = append(e.toFront, rep)
	e.persist()
}

func (e *Engine) bind(r msg.Req) {
	s, ok := e.sockets[r.Flow]
	port := uint16(r.Arg[0])
	if !ok {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoSock))
		return
	}
	if _, dup := e.byPort[port]; dup {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrInUse))
		return
	}
	if s.bound {
		delete(e.byPort, s.port)
	}
	s.port = port
	s.bound = true
	e.byPort[port] = s.id
	e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusOK))
	e.persist()
}

func (e *Engine) connect(r msg.Req) {
	s, ok := e.sockets[r.Flow]
	if !ok {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoSock))
		return
	}
	s.remoteIP = netpkt.IPFromU32(uint32(r.Arg[0]))
	s.remotePt = uint16(r.Arg[1])
	s.connected = true
	if !s.bound {
		e.autobind(s)
	}
	e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusOK))
	e.persist()
}

func (e *Engine) autobind(s *socket) {
	for p := uint16(40000); p < 65000; p++ {
		if _, used := e.byPort[p]; !used {
			s.port, s.bound = p, true
			e.byPort[p] = s.id
			return
		}
	}
}

// event publishes an edge-triggered readiness event for a nonblocking
// socket (see msg.Ev*).
func (e *Engine) event(s *socket, bits uint64) {
	if !s.nonblock || bits == 0 {
		return
	}
	ev := msg.Req{Op: msg.OpSockEvent, Flow: s.id}
	ev.Arg[0] = bits
	e.toFront = append(e.toFront, ev)
}

// setFlags switches a socket's mode, re-announcing current readiness on
// entry to nonblocking mode so a late subscriber never misses a past edge.
func (e *Engine) setFlags(r msg.Req) {
	s, ok := e.sockets[r.Flow]
	if !ok {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoSock))
		return
	}
	s.nonblock = r.Arg[0]&msg.SockNonblock != 0
	e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusOK))
	if !s.nonblock {
		return
	}
	e.event(s, s.readiness())
}

// recycle hands a send's chunks back to the socket's supply ring (the
// engine is the ring's only producer; the app cannot). Refilling a ring the
// app found exhausted (sockbuf.Buf.TakeStarved) is the edge a sender waits
// on.
func (e *Engine) recycle(s *socket, chain []shm.RichPtr) {
	for _, ptr := range chain {
		s.buf.Recycle(ptr)
	}
	if len(chain) > 0 && s.buf.TakeStarved() {
		e.event(s, msg.EvWritable)
	}
}

func (e *Engine) send(r msg.Req) {
	s, ok := e.sockets[r.Flow]
	if !ok {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoSock))
		return
	}
	dstIP := netpkt.IPFromU32(uint32(r.Arg[0]))
	dstPort := uint16(r.Arg[1])
	if dstPort == 0 {
		if !s.connected {
			e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNotConn))
			e.recycle(s, r.Chain())
			return
		}
		dstIP, dstPort = s.remoteIP, s.remotePt
	}
	if !s.bound {
		e.autobind(s)
	}
	plen := 0
	for _, p := range r.Chain() {
		plen += int(p.Len)
	}
	if plen > MaxPayload {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrInval))
		e.recycle(s, r.Chain())
		return
	}
	payload := append([]shm.RichPtr(nil), r.Chain()...)

	// Build the UDP header in our own pool (pools are immutable to
	// consumers; each layer prepends its header in its own chunk).
	hdrPtr, hdrBuf, err := e.hdrPool.Alloc()
	if err != nil {
		// Header-pool exhaustion is backpressure: give the app its staged
		// chunks back and announce them, the writable edge the refused
		// sender waits on before it restages.
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoBufs))
		e.recycle(s, r.Chain())
		e.event(s, msg.EvWritable)
		return
	}
	uh := netpkt.UDPHeader{
		SrcPort: s.port, DstPort: dstPort,
		Length: uint16(netpkt.UDPHeaderLen + plen),
	}
	uh.Marshal(hdrBuf)
	src := e.srcFor(dstIP)
	flags := uint64(0)
	if e.cfg.Offload {
		flags = msg.OffloadCsumL4
	} else {
		e.fillChecksum(hdrBuf, src, dstIP, payload, plen)
	}

	id := e.db.NewID()
	ps := pendingSend{
		frontID: r.ID, sock: s.id, hdr: hdrPtr.Slice(0, netpkt.UDPHeaderLen),
		payload: payload, dstIP: dstIP, dstPort: dstPort,
	}
	e.db.Track(id, "ip", ps, func(_ uint64, data any) {
		// Abort action on IP crash: the paper's UDP prefers sending
		// (possibly duplicate) data, so resubmit with a fresh ID.
		e.resubmitSend(data.(pendingSend))
	})
	s.inflight++

	req := msg.Req{ID: id, Op: msg.OpIPSend, Flow: s.id}
	req.AppendChain(ps.hdr)
	req.AppendChain(payload...)
	req.Arg[0] = uint64(netpkt.ProtoUDP)
	req.Arg[1] = uint64(src.U32())
	req.Arg[2] = uint64(dstIP.U32())
	req.Arg[3] = flags
	e.toIP = append(e.toIP, req)
	e.stats.DatagramsOut++
}

// fillChecksum computes the full software UDP checksum (no offload).
func (e *Engine) fillChecksum(hdrBuf []byte, src, dstIP netpkt.IPAddr, payload []shm.RichPtr, plen int) {
	acc := netpkt.PseudoSum(src, dstIP, netpkt.ProtoUDP, uint16(netpkt.UDPHeaderLen+plen))
	acc = netpkt.Sum16(hdrBuf[:netpkt.UDPHeaderLen], acc)
	// Checksum must treat the payload as one contiguous stream; chunks can
	// have odd lengths, so linearize conservatively (software path only).
	var flat []byte
	for _, p := range payload {
		if v, err := e.cfg.Space.View(p); err == nil {
			flat = append(flat, v...)
		}
	}
	acc = netpkt.Sum16(flat, acc)
	csum := netpkt.Fold16(acc)
	if csum == 0 {
		csum = 0xffff
	}
	binary.BigEndian.PutUint16(hdrBuf[6:8], csum)
}

func (e *Engine) resubmitSend(ps pendingSend) {
	id := e.db.NewID()
	e.db.Track(id, "ip", ps, func(_ uint64, data any) {
		e.resubmitSend(data.(pendingSend))
	})
	req := msg.Req{ID: id, Op: msg.OpIPSend, Flow: ps.sock}
	req.AppendChain(ps.hdr)
	req.AppendChain(ps.payload...)
	req.Arg[0] = uint64(netpkt.ProtoUDP)
	req.Arg[1] = uint64(e.srcFor(ps.dstIP).U32())
	req.Arg[2] = uint64(ps.dstIP.U32())
	if e.cfg.Offload {
		req.Arg[3] = msg.OffloadCsumL4
	}
	e.toIP = append(e.toIP, req)
	e.stats.Resubmitted++
}

func (e *Engine) sendDone(r msg.Req) {
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return // reply to a pre-crash request: ignore (fresh IDs rule)
	}
	ps, ok := data.(pendingSend)
	if !ok {
		return
	}
	_ = e.hdrPool.Free(ps.hdr)
	if s, ok := e.sockets[ps.sock]; ok {
		s.inflight--
		e.recycle(s, ps.payload)
		if r.Status == msg.StatusErrNoBufs {
			// IP dropped the datagram (a full device ring, say). The
			// sender reads NoBufs as "restage on the writable edge"
			// (sock.ErrNoBufs), and its chunks are back: announce it,
			// as send's own refusal does.
			e.event(s, msg.EvWritable)
		}
	} else if s, ok := e.closing[ps.sock]; ok {
		if s.inflight--; s.inflight == 0 {
			s.buf.Destroy(e.cfg.Space)
			delete(e.closing, s.id)
		}
	}
	rep := msg.Req{ID: ps.frontID, Op: msg.OpSockReply, Flow: ps.sock, Status: r.Status}
	e.toFront = append(e.toFront, rep)
}

func (e *Engine) deliver(r msg.Req) {
	seg := r.Ptrs[0]
	view, err := e.cfg.Space.View(seg)
	if err != nil {
		e.release(r.ID)
		return
	}
	uh, err := netpkt.ParseUDP(view)
	if err != nil {
		e.release(r.ID)
		return
	}
	sockID, ok := e.byPort[uh.DstPort]
	if !ok {
		e.stats.DroppedNoSocket++
		e.release(r.ID)
		return
	}
	s := e.sockets[sockID]
	// A connected socket receives only from its connected peer (BSD
	// semantics): datagrams from any other (address, port) source are
	// dropped before they consume queue space.
	if s.connected {
		if srcIP := netpkt.IPFromU32(uint32(r.Arg[1])); srcIP != s.remoteIP || uh.SrcPort != s.remotePt {
			e.stats.DroppedWrongSource++
			e.release(r.ID)
			return
		}
	}
	if len(s.recvQ) >= recvQueueCap {
		e.stats.DroppedQueueFull++
		e.release(r.ID)
		return
	}
	plen := int(uh.Length) - netpkt.UDPHeaderLen
	if plen < 0 || netpkt.UDPHeaderLen+plen > int(seg.Len) {
		e.release(r.ID)
		return
	}
	item := rxItem{
		srcIP:     netpkt.IPFromU32(uint32(r.Arg[1])),
		srcPort:   uh.SrcPort,
		payload:   seg.Slice(netpkt.UDPHeaderLen, uint32(netpkt.UDPHeaderLen+plen)),
		deliverID: r.ID,
	}
	wasEmpty := len(s.recvQ) == 0
	s.recvQ = append(s.recvQ, item)
	e.stats.DatagramsIn++
	if s.pendingRecv != 0 {
		id := s.pendingRecv
		s.pendingRecv = 0
		e.replyRecv(id, s)
		return
	}
	if wasEmpty {
		e.event(s, msg.EvReadable)
	}
}

// release tells IP the buffer is no longer referenced.
func (e *Engine) release(deliverID uint64) {
	e.toIP = append(e.toIP, msg.Req{ID: deliverID, Op: msg.OpIPDeliverDone})
}

func (e *Engine) recv(r msg.Req) {
	s, ok := e.sockets[r.Flow]
	if !ok {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoSock))
		return
	}
	if len(s.recvQ) == 0 {
		if s.nonblock || s.pendingRecv != 0 {
			// Nonblocking socket, or one outstanding recv per socket.
			e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrAgain))
			return
		}
		s.pendingRecv = r.ID
		return
	}
	e.replyRecv(r.ID, s)
}

// replyRecv sends the head datagram to the app. The app acknowledges with
// OpSockRecvDone carrying the deliver cookie, at which point the IP buffer
// is released (zero-copy receive: the data stays in IP's pool until the
// app has copied it out).
func (e *Engine) replyRecv(frontID uint64, s *socket) {
	item := s.recvQ[0]
	s.recvQ = s.recvQ[1:]
	rep := msg.Req{ID: frontID, Op: msg.OpSockRecvData, Flow: s.id, Status: msg.StatusOK}
	rep.SetChain([]shm.RichPtr{item.payload})
	rep.Arg[0] = uint64(item.srcIP.U32())
	rep.Arg[1] = uint64(item.srcPort)
	rep.Arg[2] = item.deliverID
	e.toFront = append(e.toFront, rep)
}

func (e *Engine) recvDone(r msg.Req) {
	// Arg0 carries the deliver cookie from OpSockRecvData.
	if r.Arg[0] != 0 {
		e.release(r.Arg[0])
	}
}

func (e *Engine) close(r msg.Req) {
	s, ok := e.sockets[r.Flow]
	if !ok {
		e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusErrNoSock))
		return
	}
	for _, item := range s.recvQ {
		e.release(item.deliverID)
	}
	if s.bound {
		delete(e.byPort, s.port)
	}
	if e.cfg.UnpublishBuf != nil {
		e.cfg.UnpublishBuf(s.id)
	}
	delete(e.sockets, s.id)
	if s.inflight == 0 {
		s.buf.Destroy(e.cfg.Space)
	} else {
		e.closing[s.id] = s
	}
	e.toFront = append(e.toFront, r.Reply(msg.OpSockReply, msg.StatusOK))
	e.persist()
}

// OnFrontRestart is the recovery action for a reincarnated frontdoor. The
// restart dropped every event staged towards the dead incarnation (the
// edge's restart rule), so each nonblocking socket's current readiness is
// re-announced, as installSocket does after a live update.
func (e *Engine) OnFrontRestart() {
	for _, s := range e.sockets {
		e.event(s, s.readiness())
	}
}

// OnIPRestart runs the request-database abort actions for the IP server
// and drops references into its stale receive pool.
func (e *Engine) OnIPRestart() {
	// Queued-but-unconsumed datagrams reference the dead incarnation's
	// pool; drop them (datagram loss is acceptable; paper §V-D).
	for _, s := range e.sockets {
		s.recvQ = nil
	}
	aborted := e.db.AbortDest("ip")
	e.stats.SendsAborted += uint64(aborted)
}
