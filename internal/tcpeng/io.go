package tcpeng

import (
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// segmentIn processes one inbound TCP delivery from IP.
// r.Ptrs[0] points at the L4 segment inside IP's receive pool; r.ID is the
// deliver cookie we must eventually hand back so IP can recycle the buffer.
// A GRO-merged delivery (Arg[3] > 1) carries the payload-only views of the
// coalesced trailing segments in Ptrs[1:]; the run is contiguous in
// sequence space and all segments shared the first header's ack and window,
// so the lead header represents the whole run.
func (e *Engine) segmentIn(r msg.Req) {
	seg := r.Ptrs[0]
	view, err := e.cfg.Space.View(seg)
	if err != nil {
		e.releaseDeliver(r.ID)
		return
	}
	th, err := netpkt.ParseTCP(view)
	if err != nil {
		e.releaseDeliver(r.ID)
		return
	}
	nseg := int(r.Arg[3])
	if nseg < 1 {
		nseg = 1
	}
	var extras []shm.RichPtr
	if nseg > 1 {
		extras = r.Chain()[1:]
	}
	e.stats.SegsIn += uint64(nseg)
	srcIP := netpkt.IPFromU32(uint32(r.Arg[1]))
	key := fourTuple{localPort: th.DstPort, remoteIP: srcIP, remotePort: th.SrcPort}

	dstIP := netpkt.IPFromU32(uint32(r.Arg[2]))
	if p := e.byTuple[key]; p != nil {
		e.segmentForConn(p, th, seg, view, extras, nseg, r.ID)
		return
	}
	// No connection: a listener may take a SYN.
	if th.Flags&netpkt.TCPSyn != 0 && th.Flags&netpkt.TCPAck == 0 {
		if lid, ok := e.listeners[th.DstPort]; ok {
			e.handleListenSyn(e.pcbOf(lid), th, key, dstIP)
			e.releaseDeliver(r.ID)
			return
		}
	}
	// Unknown segment (e.g. for a connection that died with a previous
	// incarnation): RST, unless it is itself an RST.
	if th.Flags&netpkt.TCPRst == 0 {
		e.sendRstFor(th, srcIP, dstIP)
	}
	e.releaseDeliver(r.ID)
}

// handleListenSyn creates an embryonic connection for a SYN on a listener.
func (e *Engine) handleListenSyn(l *pcb, th netpkt.TCPHeader, key fourTuple, dstIP netpkt.IPAddr) {
	if len(l.acceptQ)+1 > l.backlog {
		return // silently drop; peer retries
	}
	c := &pcb{
		id: e.allocID(), state: StateSynRcvd, mss: MSS, listenerID: l.id,
		fourTuple: key, localIP: dstIP, bound: true,
	}
	if th.MSS != 0 && th.MSS < c.mss {
		c.mss = th.MSS
	}
	c.sackOK = th.SACKPermitted
	e.initSendState(c)
	c.irs = th.Seq
	c.rcvNxt = th.Seq + 1
	c.sndWnd = uint32(th.Window)
	e.byID[c.id] = c
	e.byTuple[key] = c
	// No TX buffer yet: it is provisioned lazily on the first send, so an
	// accepted-but-idle connection costs no socket-buffer memory.
	e.emitSegment(c, netpkt.TCPSyn|netpkt.TCPAck, c.iss, nil, 0, true)
	c.sndNxt = c.iss + 1
	c.rto = synRTO
	e.armTimer(c, timerRTO, e.now.Add(c.rto))
}

// segmentForConn is the per-connection receive state machine. extras are
// the payload-only views of GRO-coalesced trailing segments (nil for a
// plain single-segment delivery); nseg is the wire segment count.
func (e *Engine) segmentForConn(p *pcb, th netpkt.TCPHeader, seg shm.RichPtr, view []byte, extras []shm.RichPtr, nseg int, deliverID uint64) {
	if th.Flags&netpkt.TCPRst != 0 {
		e.stats.RSTsIn++
		// Not in TIME-WAIT (RFC 1337): the close completed cleanly, and the
		// RST is a gone peer's answer to a duplicate of our last ACK. It must
		// not take the data and the EOF the application has yet to read.
		if p.state != StateTimeWait {
			e.connReset(p)
		}
		e.releaseDeliver(deliverID)
		return
	}

	switch p.state {
	case StateSynSent:
		e.synSentIn(p, th)
		e.releaseDeliver(deliverID)
		return
	case StateSynRcvd:
		if th.Flags&netpkt.TCPAck != 0 && th.Ack == p.sndNxt {
			e.established(p)
			// Fall through to normal processing for any piggybacked data.
		} else if th.Flags&netpkt.TCPSyn != 0 {
			// Duplicate SYN: re-ack.
			e.emitSegment(p, netpkt.TCPSyn|netpkt.TCPAck, p.iss, nil, 0, true)
			e.releaseDeliver(deliverID)
			return
		}
	case StateTimeWait:
		// Re-ACK what occupies sequence space — the peer's FIN again, its
		// ACK lost — and nothing else: answering pure ACKs would have two
		// ends in TIME-WAIT (a simultaneous close) ACK each other until the
		// timer ran out.
		if th.Flags&netpkt.TCPFin != 0 || len(view) > th.DataOff {
			e.sendAck(p)
		}
		e.releaseDeliver(deliverID)
		return
	case StateClosed:
		e.releaseDeliver(deliverID)
		return
	default:
		if th.Flags&netpkt.TCPSyn != 0 {
			// A SYN-ACK again: the ACK that completed the handshake was
			// lost, and a peer that speaks first is waiting for it.
			e.sendAck(p)
			e.releaseDeliver(deliverID)
			return
		}
	}

	// ACK processing. plen spans the whole (possibly merged) run.
	plen := uint32(len(view) - th.DataOff)
	for _, ex := range extras {
		plen += ex.Len
	}
	if th.Flags&netpkt.TCPAck != 0 {
		e.processAck(p, th, plen > 0)
	}
	windowOpened := p.sndWnd == 0 && th.Window > 0
	p.sndWnd = uint32(th.Window)
	if windowOpened {
		e.disarmTimer(p, timerRTO)
		p.retxCount = 0
	}
	used := false
	if plen > 0 {
		used = e.processData(p, th, seg, extras, nseg, plen, deliverID)
	}

	// FIN processing, only when all data up to the FIN has arrived. One that
	// comes behind a hole — its own data held, or no data and inside the
	// window — is remembered and takes effect when the hole fills.
	if fin := th.Seq + plen; th.Flags&netpkt.TCPFin != 0 && netpkt.SeqLT(p.rcvNxt, fin) &&
		(used || plen == 0 && netpkt.SeqLEQ(fin, p.rcvNxt+e.rcvWnd(p))) {
		p.finHeld, p.finAt = true, fin
	}
	if th.Flags&netpkt.TCPFin != 0 && p.rcvNxt == th.Seq+plen || p.finHeld && p.rcvNxt == p.finAt {
		p.finHeld = false
		e.processFin(p)
	}

	if !used {
		e.releaseDeliver(deliverID)
	}
	e.output(p)
}

func (e *Engine) synSentIn(p *pcb, th netpkt.TCPHeader) {
	if th.Flags&(netpkt.TCPSyn|netpkt.TCPAck) != netpkt.TCPSyn|netpkt.TCPAck || th.Ack != p.iss+1 {
		return
	}
	p.irs = th.Seq
	p.rcvNxt = th.Seq + 1
	p.sndUna = th.Ack
	p.sndWnd = uint32(th.Window)
	if th.MSS != 0 && th.MSS < p.mss {
		p.mss = th.MSS
	}
	p.sackOK = th.SACKPermitted
	e.established(p)
	e.sendAck(p)
	e.output(p)
}

// established completes the handshake for both active and passive opens.
func (e *Engine) established(p *pcb) {
	if p.state == StateEstablished {
		return
	}
	p.state = StateEstablished
	p.rto = minRTO * 4
	e.disarmTimer(p, timerRTO)
	p.retxCount = 0
	if p.pendingConnect != 0 {
		e.replyConnected(p.pendingConnect, p)
		p.pendingConnect = 0
	} else if p.listenerID == 0 {
		// Nonblocking active open completed: announce the edge; the app
		// learns the outcome by re-issuing the connect.
		e.event(p, msg.EvWritable)
	}
	if p.listenerID != 0 {
		if l := e.pcbOf(p.listenerID); l != nil && l.state == StateListen {
			if len(l.pendingAccept) > 0 {
				id := l.pendingAccept[0]
				l.pendingAccept = l.pendingAccept[1:]
				e.replyAccept(id, l.id, p.id)
			} else {
				l.acceptQ = append(l.acceptQ, p.id)
				if len(l.acceptQ) == 1 {
					// Empty → nonempty edge; nonblocking accepters must
					// drain the queue until EAGAIN on each wakeup.
					e.event(l, msg.EvAcceptReady)
				}
			}
		}
		e.stats.ConnsAccepted++
	}
	e.persist()
}

// processAck advances the send window, frees acknowledged stream chunks,
// samples RTT, records what the peer SACKed, and drives congestion control
// (Reno growth; loss response in detectLoss).
func (e *Engine) processAck(p *pcb, th netpkt.TCPHeader, hasPayload bool) {
	ack := th.Ack
	if netpkt.SeqLT(p.sndNxt, ack) || netpkt.SeqLT(ack, p.sndUna) {
		return // acks something we never sent, or older than what we know
	}
	if ack == p.sndUna {
		// A duplicate ACK in the RFC 5681 sense: no payload, no window
		// change, data outstanding. Window updates and data segments that
		// repeat the ack number are NOT loss signals; SACK blocks are
		// evidence whatever they ride on.
		if p.sndNxt != p.sndUna && !hasPayload && uint32(th.Window) == p.sndWnd {
			p.dupAcks++
			e.stats.DupAcksIn++
		}
		if th.NSACK > 0 || !p.sackOK && p.dupAcks >= 3 {
			p.sackUpdate(&th)
			e.detectLoss(p)
		}
		return
	}
	// New data acknowledged.
	acked := ack - p.sndUna
	p.sndUna = ack
	p.dupAcks, p.retxCount = 0, 0
	if p.probe == probeSent {
		p.probe = probeIdle
	}
	if len(p.sacked) > 0 {
		p.sackTrim()
	}
	if th.NSACK > 0 {
		p.sackUpdate(&th)
	}

	// RTT sample (Karn's rule: only for never-retransmitted segments).
	if p.rttSeq != 0 && netpkt.SeqLT(p.rttSeq, ack) {
		e.rttSample(p, e.now.Sub(p.rttStart))
		p.rttSeq = 0
	}
	// Congestion control. An episode opened on evidence holds cwnd at
	// ssthresh until it ends; one opened by a timeout slow-starts up to it.
	if p.inRecovery {
		p.ackInRecovery()
	}
	if p.cwnd < p.ssthresh {
		p.cwnd += min32(acked, uint32(p.mss)) // slow start
	} else if !p.inRecovery {
		p.cwnd += max32(uint32(p.mss)*uint32(p.mss)/p.cwnd, 1) // AIMD
	}

	e.recycleAcked(p)

	// Retransmission timer.
	if p.sndUna == p.sndNxt {
		e.disarmTimer(p, timerRTO)
	} else {
		// Push the deadline out: the armed entry moves down the heap.
		e.armRetx(p)
	}
	if len(p.sacked) > 0 {
		e.detectLoss(p)
	}

	// Half-close progress. The FIN is acknowledged, so nothing is left to
	// send and the TX buffer goes (releaseSentBuf): every way into
	// TIME-WAIT passes through here.
	if p.finSent && netpkt.SeqLT(p.finSeq, ack) {
		e.releaseSentBuf(p)
		switch p.state {
		case StateFinWait1:
			p.state = StateFinWait2
		case StateClosing:
			e.enterTimeWait(p)
		case StateLastAck:
			e.destroy(p)
			e.persist()
		}
	}
}

func (e *Engine) rttSample(p *pcb, rtt time.Duration) {
	if p.srtt == 0 {
		p.srtt = rtt
		p.rttvar = rtt / 2
	} else {
		d := p.srtt - rtt
		if d < 0 {
			d = -d
		}
		p.rttvar = (3*p.rttvar + d) / 4
		p.srtt = (7*p.srtt + rtt) / 8
	}
	p.rto = p.srtt + 4*p.rttvar
	if p.rto < minRTO {
		p.rto = minRTO
	}
	if p.rto > maxRTO {
		p.rto = maxRTO
	}
}

// processData takes a delivery's payload into the connection. What starts
// at rcvNxt (after trimming a duplicate head) is queued for the application,
// clipped at the advertised window and at the first byte the reassembly
// queue already holds; what starts above rcvNxt goes into the reassembly
// queue (reasm.go) and is ACKed at once with SACK blocks. Either way nothing
// inside the window is discarded unless the bytes are already here.
// The payload may span several views (a GRO-merged run: the lead segment's
// payload plus one payload-only view per coalesced trailing segment, all
// contiguous in sequence space); one rxItem is queued per view part that
// lands in the window, each holding a reference on the deliver cookie.
// Returns true when the deliver buffer was retained in either queue.
func (e *Engine) processData(p *pcb, th netpkt.TCPHeader, seg shm.RichPtr, extras []shm.RichPtr, nseg int, plen uint32, deliverID uint64) bool {
	switch p.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return false
	}
	spans := e.paySpans(&th, seg, extras)
	seq := th.Seq
	if netpkt.SeqLT(p.rcvNxt, seq) {
		// Out of order: hold it, and tell the sender at once — the ACK is
		// its evidence of the hole and its map of what not to resend.
		used := e.hold(p, seq, plen, spans, deliverID)
		if !used {
			e.stats.DropsOOO++
		}
		e.sendAck(p)
		return used
	}
	start := p.rcvNxt - seq // duplicate head to trim
	if start >= plen {
		e.stats.DropsDup++
		e.sendAck(p)
		return false
	}
	if e.rcvWnd(p) == 0 {
		e.stats.DropsWindow++
		e.sendAck(p)
		return false
	}
	take := plen - start
	if take > e.rcvWnd(p) {
		e.stats.DropsWindow++
		take = e.rcvWnd(p)
	}
	holes := len(p.oooQ) > 0
	if holes {
		// A retransmission sized by a sender that knows less than we hold
		// may run into the next held segment: those bytes are here already.
		take = min32(take, p.oooQ[0].seq-p.rcvNxt)
	}

	// Walk the payload views, skipping the trimmed head and stopping at the
	// clamp.
	wasEmpty := p.rcvQueued == 0
	skip, left := start, take
	for _, sp := range spans {
		if left == 0 {
			break
		}
		if skip >= sp.n {
			skip -= sp.n
			continue
		}
		n := min32(sp.n-skip, left)
		p.rcvQ = append(p.rcvQ, rxItem{
			payload:   sp.ptr.Slice(sp.base+skip, sp.base+skip+n),
			deliverID: deliverID,
		})
		e.retainDeliver(deliverID)
		skip = 0
		left -= n
	}
	p.rcvQueued += take
	p.rcvNxt += take
	e.stats.BytesIn += uint64(take)
	if holes {
		e.drainHeld(p)
	}
	if wasEmpty && p.pendingRecv == 0 {
		e.event(p, msg.EvReadable)
	}

	// ACK policy: a segment that fills a hole, wholly or partly — at once,
	// the sender is waiting for exactly this. Otherwise every second segment
	// — or a PSH boundary (the end of a sender burst) — immediately, else
	// delayed. A merged delivery counts as its wire segment count so ack
	// clocking is unchanged by GRO. Acking on PSH keeps TSO bursts from
	// stalling on the delayed-ACK timer.
	p.ackPending += nseg
	if holes || p.ackPending >= 2 || th.Flags&netpkt.TCPPsh != 0 {
		e.sendAck(p)
	} else if p.delAckAt.IsZero() {
		e.armTimer(p, timerDelAck, e.now.Add(delAckDelay))
	}

	// Wake a parked recv.
	if p.pendingRecv != 0 {
		id := p.pendingRecv
		p.pendingRecv = 0
		e.replyRecv(id, p)
	}
	return take > 0
}

func (e *Engine) processFin(p *pcb) {
	if p.finRcvd {
		return
	}
	p.finRcvd = true
	p.rcvNxt++
	e.sendAck(p)
	switch p.state {
	case StateEstablished:
		p.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close.
		p.state = StateClosing
	case StateFinWait2:
		e.enterTimeWait(p)
	}
	// EOF to a parked recv.
	if p.pendingRecv != 0 && p.rcvQueued == 0 {
		id := p.pendingRecv
		p.pendingRecv = 0
		rep := msg.Req{ID: id, Op: msg.OpSockRecvData, Flow: p.id, Status: msg.StatusOK}
		e.toFront = append(e.toFront, rep)
	}
	e.event(p, msg.EvEOF|msg.EvReadable)
	e.persist()
}

func (e *Engine) enterTimeWait(p *pcb) {
	p.state = StateTimeWait
	e.armTimer(p, timerTimeWait, e.now.Add(timeWait))
	e.disarmTimer(p, timerRTO)
	e.persist()
}

// connReset tears a connection down on RST: pending app operations fail
// with ECONNRESET.
func (e *Engine) connReset(p *pcb) {
	// Park the failure for a later connect poll ONLY when nobody is being
	// told now: a blocking connect (pendingConnect) gets its reply below,
	// and parking the status too would make the app's NEXT connect return
	// this stale refusal instead of dialing.
	status := msg.StatusErrConnRst
	if p.state == StateSynSent {
		status = msg.StatusErrRefused
	}
	if p.pendingConnect != 0 {
		e.reply(p.pendingConnect, p.id, msg.StatusErrRefused)
		p.pendingConnect = 0
		status = 0
	}
	if p.pendingRecv != 0 {
		e.reply(p.pendingRecv, p.id, msg.StatusErrConnRst)
		p.pendingRecv = 0
	}
	if p.finQueued {
		// The application closed this socket already: nobody is left to
		// learn the outcome or to close it again, so parking would leak it.
		e.destroy(p)
		e.persist()
		return
	}
	// Keep the pcb visible as reset for subsequent app calls.
	e.parkFailed(p, status)
	e.event(p, msg.EvError|msg.EvReadable|msg.EvWritable)
	e.persist()
}

// sendDone handles IP's completion of one of our segment transmissions:
// the header chunk is freed (payload chunks live until acknowledged).
func (e *Engine) sendDone(r msg.Req) {
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return // pre-crash reply; fresh-ID rule says ignore
	}
	if hdr, ok := data.(shm.RichPtr); ok {
		_ = e.hdrPool.Free(hdr)
	}
	e.retxDone(r.ID)
}

// recycleAcked frees stream chunks that are fully acknowledged. If the app
// found its buffer exhausted (sockbuf.Buf.TakeStarved), the recycle is the
// exhausted → free edge a sender waits on. Deferred while any frame
// re-covering already-sent bytes is still at the NIC: freeing the ring space
// would let the app overwrite the very memory the NIC is reading out of that
// older copy.
func (e *Engine) recycleAcked(p *pcb) {
	if p.retxPending > 0 {
		return
	}
	recycled := false
	for len(p.stream) > 0 {
		c := p.stream[0]
		if !netpkt.SeqLEQ(c.seq+c.ptr.Len, p.sndUna) {
			break
		}
		if p.buf != nil {
			p.buf.Recycle(c.ptr)
			recycled = true
		}
		p.stream = p.stream[1:]
	}
	if recycled && p.buf.TakeStarved() {
		e.event(p, msg.EvWritable)
	}
}

// retxDone resolves one tagged frame (see emit): when a connection's last
// in-flight retransmitted-region frame completes, the deferred ring
// recycle runs, and so does the deferred release of a socket whose FIN is
// acknowledged. An IP restart's abort of the frame ends here too.
func (e *Engine) retxDone(id uint64) {
	pid, ok := e.retxFrames[id]
	if !ok {
		return
	}
	delete(e.retxFrames, id)
	p := e.pcbOf(pid)
	if p == nil {
		return
	}
	if p.retxPending > 0 {
		p.retxPending--
	}
	if p.retxPending == 0 {
		e.recycleAcked(p)
		e.releaseSentBuf(p)
	}
}
