package tcpeng

// State records (docs/ARCHITECTURE.md "State records"): the one way TCP
// state leaves the engine. pcb.record describes a pcb once, for writing and
// for reading, and both kinds of engine image are made of those records:
//
//   - HandoffState, the live-update image, carries the id counter, a live
//     section (ISS clock, port cursor, counters, un-drained output, the
//     request database's in-flight sends) and every pcb in full — stream
//     chunks, receive and reassembly queues, congestion state, the SACK
//     scoreboard and recovery episode, parked timer deadlines. TX
//     buffers cross beside it by handle: their pools live in the node's
//     shm.Space, which outlives incarnations, so every rich pointer in the
//     image stays valid.
//   - SaveState, the crash image parked in the storage server, is a
//     projection of the same thing: the id counter, no live section, and
//     one record per listener keeping only what paper Table I says TCP can
//     recover. Established connections die with the server.
//
// Restore reads either and installs each decoded pcb as it is (heapPos is
// never in a record, so a decoded pcb starts with every timer disarmed). Id
// and tuple maps, listener map, port table and receive-cookie counts are
// rebuilt from the pcbs, so they can never disagree with them; request ids
// are re-seeded, timers re-armed in a fresh heap from the transferred
// deadlines, and readiness conservatively re-announced for nonblocking
// sockets — spurious edges, never lost ones.
//
// The engine deliberately does not know the handoff message: the server
// shell wraps the image and the handles into transport.Payload.

import (
	"fmt"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/staterec"
)

// record names every field of a pcb that means something to another
// incarnation, in wire order, and reports whether the socket has a TX
// buffer (the buffer itself crosses by handle). heapPos is deliberately
// absent: it indexes this incarnation's timer heap.
func (p *pcb) record(c *staterec.Codec) (hasBuf bool) {
	staterec.Num(c, &p.id)
	staterec.Num(c, &p.state)
	staterec.Num(c, &p.localPort)
	c.Bytes(p.remoteIP[:])
	staterec.Num(c, &p.remotePort)
	c.Bytes(p.localIP[:])
	c.Bool(&p.bound)
	c.Bool(&p.portEphem)

	staterec.Num(c, &p.iss)
	staterec.Num(c, &p.sndUna)
	staterec.Num(c, &p.sndNxt)
	staterec.Num(c, &p.sndWnd)
	staterec.Num(c, &p.cwnd)
	staterec.Num(c, &p.ssthresh)
	staterec.Num(c, &p.mss)
	c.Bool(&p.sackOK)
	staterec.List(c, &p.stream, 4+staterec.PtrSize, func(ch *streamChunk) {
		staterec.Num(c, &ch.seq)
		c.Ptr(&ch.ptr)
	})
	staterec.Num(c, &p.streamEnd)
	c.Bool(&p.finQueued)
	staterec.Num(c, &p.finSeq)
	c.Bool(&p.finSent)

	staterec.Num(c, &p.srtt)
	staterec.Num(c, &p.rttvar)
	staterec.Num(c, &p.rto)
	c.Time(&p.rtoAt)
	staterec.Num(c, &p.rttSeq)
	c.Time(&p.rttStart)
	staterec.Num(c, &p.retxCount)
	staterec.Num(c, &p.retxPending)
	staterec.Num(c, &p.dupAcks)

	staterec.List(c, &p.sacked, 4+4, func(r *seqRange) {
		staterec.Num(c, &r.start)
		staterec.Num(c, &r.end)
	})
	c.Bool(&p.inRecovery)
	staterec.Num(c, &p.recover)
	staterec.Num(c, &p.lostTo)
	staterec.Num(c, &p.rxtNxt)
	staterec.Num(c, &p.probe)

	staterec.Num(c, &p.irs)
	staterec.Num(c, &p.rcvNxt)
	rx := func(item *rxItem) {
		c.Ptr(&item.payload)
		staterec.Num(c, &item.deliverID)
		staterec.Num(c, &item.consumed)
	}
	staterec.List(c, &p.rcvQ, staterec.PtrSize+8+4, rx)
	staterec.Num(c, &p.rcvQueued)
	staterec.List(c, &p.oooQ, 4+4+staterec.PtrSize+8+4, func(held *oooSeg) {
		staterec.Num(c, &held.seq)
		staterec.Num(c, &held.stamp)
		rx(&held.rxItem)
	})
	staterec.Num(c, &p.oooClock)
	c.Bool(&p.finHeld)
	staterec.Num(c, &p.finAt)
	c.Bool(&p.finRcvd)
	c.Time(&p.delAckAt)
	staterec.Num(c, &p.ackPending)

	hasBuf = p.buf != nil
	c.Bool(&hasBuf)
	c.Bool(&p.nonblock)
	staterec.Num(c, &p.connStatus)
	staterec.Num(c, &p.pendingRecv)
	staterec.Num(c, &p.pendingConnect)
	staterec.List(c, &p.pendingAccept, 8, func(id *uint64) { staterec.Num(c, id) })
	staterec.List(c, &p.acceptQ, 4, func(id *uint32) { staterec.Num(c, id) })
	staterec.Num(c, &p.backlog)
	staterec.Num(c, &p.listenerID)
	c.Time(&p.timeWaitAt)
	c.Bool(&p.reset)
	return hasBuf
}

// counters lists every Stats field, for the live section.
func (s *Stats) counters() []*uint64 {
	return []*uint64{
		&s.SegsOut, &s.SegsIn, &s.BytesOut, &s.BytesIn, &s.Retransmits, &s.FastRetx,
		&s.RTOs, &s.Probes,
		&s.RSTsSent, &s.RSTsIn, &s.DupAcksIn, &s.ConnsOpened, &s.ConnsAccepted,
		&s.SendsResubmitted, &s.OOOQueued, &s.DropsOOO, &s.DropsDup, &s.DropsWindow,
	}
}

// header opens every image: the socket-id counter, and whether a live
// section follows.
func (e *Engine) header(c *staterec.Codec, live bool) bool {
	staterec.Num(c, &e.next)
	c.Bool(&live)
	return live
}

// live is the part of an image only a live update carries: ISS clock, port
// cursor, counters, un-drained output, and the requests outstanding at IP.
// Receive-cookie counts are not here: installPCB recounts them from the
// receive queues.
func (e *Engine) live(c *staterec.Codec) {
	staterec.Num(c, &e.issClock)
	staterec.Num(c, &e.ports.cursor)
	for _, ctr := range e.stats.counters() {
		staterec.Num(c, ctr)
	}
	staterec.List(c, &e.toIP, staterec.MinReqSize, c.Req)
	staterec.List(c, &e.toFront, staterec.MinReqSize, c.Req)

	// A frame outstanding at IP: its reply (sendDone) will arrive on the
	// inherited channel addressed to this id, and the successor must keep
	// matching it — and must free the header chunk if IP crashes instead
	// (trackFrame). retxFlow is the owning pcb id when the frame re-covers
	// already-sent bytes (0 otherwise; socket ids are never zero).
	frame := func(id *uint64, hdr *shm.RichPtr, retxFlow *uint32) {
		staterec.Num(c, id)
		c.Ptr(hdr)
		staterec.Num(c, retxFlow)
	}
	lastID, n := e.db.LastID(), e.db.Len() // every request the engine tracks is one to IP
	staterec.Num(c, &lastID)
	c.Count(&n, 8+staterec.PtrSize+4)
	if !c.Reading() {
		e.db.Each(func(id uint64, _ string, data any) {
			hdr, _ := data.(shm.RichPtr)
			retxFlow := e.retxFrames[id]
			frame(&id, &hdr, &retxFlow)
		})
		return
	}
	e.db.Seed(lastID)
	for ; n > 0; n-- {
		var id uint64
		var hdr shm.RichPtr
		var retxFlow uint32
		frame(&id, &hdr, &retxFlow)
		if retxFlow != 0 {
			e.retxFrames[id] = retxFlow
		}
		e.trackFrame(id, hdr)
	}
}

// SaveState serializes what survives a TCP server crash (paper: "TCP can
// only restore listening sockets"): the id counter and, per listener, its
// id, port and backlog. Accept queues, parked accepts and the nonblocking
// flag are not kept — the children died with the server, and the frontdoor
// reissues accepts and mode bits to the new incarnation.
func (e *Engine) SaveState() ([]byte, error) {
	return staterec.Encode(func(c *staterec.Codec) {
		e.header(c, false)
		n := len(e.listeners)
		c.Count(&n, 1)
		for _, id := range e.listeners {
			p := e.pcbOf(id)
			keep := pcb{
				id: p.id, state: StateListen, fourTuple: fourTuple{localPort: p.localPort},
				bound: true, mss: p.mss, backlog: p.backlog,
			}
			keep.record(c)
		}
	}), nil
}

// HandoffState serializes the engine for a live update and returns the
// image plus the per-socket TX buffer handles the successor adopts in
// place. It runs on the loop goroutine as the old incarnation's final act,
// after the drain rounds, so no concurrent mutation is possible.
func (e *Engine) HandoffState() ([]byte, map[uint32]*sockbuf.Buf, error) {
	bufs := make(map[uint32]*sockbuf.Buf)
	blob := staterec.Encode(func(c *staterec.Codec) {
		e.header(c, true)
		e.live(c)
		n := len(e.byID)
		c.Count(&n, 1)
		for _, p := range e.byID {
			if p.record(c) {
				bufs[p.id] = p.buf
			}
		}
	})
	return blob, bufs, nil
}

// Restore rebuilds the engine from an image: a predecessor's HandoffState,
// with bufs the live TX-buffer handles from the transfer payload, or — with
// no handles — the SaveState image a crashed incarnation left in storage,
// which recovers the listening sockets (previously established connections
// are not restored; peers learn via RST when their next segment arrives).
// now seeds the engine clock. Called from a new incarnation's Init, before
// its first Poll; an engine whose restore failed is half-built and must be
// discarded, as Init does.
func (e *Engine) Restore(blob []byte, bufs map[uint32]*sockbuf.Buf, now time.Time) error {
	e.now = now
	err := staterec.Decode(blob, func(c *staterec.Codec) {
		if e.header(c, false) {
			e.live(c)
		}
		var n int
		for c.Count(&n, 1); n > 0 && c.Err() == nil; n-- {
			p := new(pcb)
			if hasBuf := p.record(c); c.Err() == nil {
				c.Fail(e.installPCB(p, hasBuf, bufs[p.id]))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("tcpeng: restore: %w", err)
	}
	// Seed this incarnation's storage snapshot from the restored tables so a
	// later crash recovers from current state, not the predecessor's.
	e.persist()
	return nil
}

// installPCB gives a decoded pcb a home in this incarnation: its index
// entries, its share of the port table and listener map, its TX buffer, and
// its timers in this heap. Crash recovery and live update both end here.
func (e *Engine) installPCB(p *pcb, hasBuf bool, buf *sockbuf.Buf) error {
	if hasBuf && buf == nil {
		return fmt.Errorf("pcb %d: missing TX buffer handle", p.id)
	}
	if e.pcbOf(p.id) != nil {
		return fmt.Errorf("pcb %d: duplicate socket id", p.id)
	}
	e.byID[p.id] = p
	if p.fourTuple != (fourTuple{}) {
		e.byTuple[p.fourTuple] = p
	}
	for _, rx := range p.rcvQ {
		e.retainDeliver(rx.deliverID)
	}
	for _, held := range p.oooQ {
		e.retainDeliver(held.deliverID)
	}

	// Port table and listener map are rebuilt from the pcbs. reserve can
	// return false when the port is already held (a listener's accepted
	// children share its port) — the bitmap end state is identical either
	// way. Each autobound pcb re-acquires one ephemeral refcount, matching
	// the releases its eventual destroy will perform.
	if p.state == StateListen {
		e.listeners[p.localPort] = p.id
		e.ports.reserve(p.localPort)
	} else if p.bound && p.localPort != 0 {
		if p.portEphem {
			e.ports.ephemAcquire(p.localPort)
		} else {
			e.ports.reserve(p.localPort)
		}
	}

	if hasBuf {
		p.buf = buf
		// The registry entry from the predecessor's PublishBuf is still
		// live — the buffer object itself never changed — so no re-publish.
	}

	// Re-arm parked timers in the fresh heap. A decoded heapPos is zero, so
	// each goes in as new; deadlines already in the past fire on the first
	// Tick.
	for kind := 0; kind < numTimers; kind++ {
		if at := *p.timerAt(kind); !at.IsZero() {
			e.armTimer(p, kind, at)
		}
	}

	// Re-emit the current level state as edges for a nonblocking socket: the
	// SYSCALL server's poller may have consumed an edge the moment before the
	// swap, and edges, unlike levels, are not re-derivable by the receiver.
	// Spurious wakeups are benign (every consumer retries and handles
	// EAGAIN); lost ones would strand a poller forever.
	e.event(p, p.readiness())
	return nil
}

// readiness is a socket's current level state as event bits.
func (p *pcb) readiness() uint64 {
	var bits uint64
	if p.rcvQueued > 0 {
		bits |= msg.EvReadable
	}
	if p.finRcvd {
		bits |= msg.EvEOF | msg.EvReadable
	}
	if len(p.acceptQ) > 0 {
		bits |= msg.EvAcceptReady
	}
	if p.reset || p.connStatus != 0 {
		bits |= msg.EvError
	}
	switch p.state {
	case StateEstablished, StateCloseWait:
		bits |= msg.EvWritable
	}
	return bits
}

// persist notes that the recoverable state changed. Tick saves it — once
// per iteration at most, after the iteration's intake and before its
// replies leave (transport.Server.Poll drains them after Tick), and no
// sooner than the pacing rule allows for the table's size.
func (e *Engine) persist() {
	if e.cfg.SaveState != nil {
		e.save.Mark()
	}
}

func (e *Engine) flushIfDue() {
	if e.save.Take(e.now, len(e.byID)) {
		if blob, err := e.SaveState(); err == nil {
			e.cfg.SaveState(blob)
		}
	}
}

// Flows returns the established connections as PF conntrack keys, for PF's
// rebuild after its own crash. Src is the connection's actual local
// address: on multi-homed hosts different connections leave through
// different interfaces, and PF's rebuilt entries must carry the address the
// packets really use, not the node's first address.
func (e *Engine) Flows() []pfeng.Flow {
	out := make([]pfeng.Flow, 0, len(e.byTuple))
	for _, p := range e.byTuple {
		if p.state != StateEstablished {
			continue
		}
		local := p.localIP
		if local == (netpkt.IPAddr{}) {
			local = e.srcFor(p.remoteIP)
		}
		out = append(out, pfeng.Flow{
			Proto: netpkt.ProtoTCP,
			Src:   local, SrcPort: p.localPort,
			Dst: p.remoteIP, DstPort: p.remotePort,
		})
	}
	return out
}
