package tcpeng

import "newtos/internal/netpkt"

// Sender loss recovery (RFC 6675 in outline). The scoreboard p.sacked is
// the sorted, merged list of ranges above sndUna the peer has selectively
// acknowledged. A hole — un-SACKed bytes below sndNxt — is lost on evidence,
// and every kind of evidence ends in the same mark, p.lostTo:
//
//   - three segments' worth of bytes SACKed above it (RFC 6675 IsLost; the
//     byte rule rather than an ACK count, because the peer's GRO turns four
//     segments into one delivery and so one duplicate ACK);
//   - from a peer that did not negotiate SACK, three duplicate ACKs, and in
//     an episode each partial ACK after them (NewReno): the next segment is
//     lost. A SACK peer's bare duplicate ACKs are not evidence: they are what
//     a duplicate segment draws — a stray probe, the resends of a timeout that
//     turned out spurious — and say nothing is missing;
//   - the answer to a tail-loss probe that shows a hole below the probe;
//   - a retransmission timeout or an IP restart: everything not SACKed.
//
// output retransmits lost holes lowest first while pipe < cwnd, then new
// data. An episode (inRecovery) reduces the window once, at its start, and
// ends when sndUna passes where sndNxt was then (recover).

// lossSegs is the byte rule's threshold in segments (RFC 6675 DupThresh).
const lossSegs = 3

// maxSacked bounds the scoreboard. A 64 KiB window of full segments with
// every other one missing is 22 ranges; a block that would need a new entry
// beyond the bound is ignored, which only costs a redundant retransmission.
const maxSacked = 32

// Tail-loss probe states (pcb.probe).
const (
	probeIdle  uint8 = iota
	probeArmed       // the retransmission timer is a probe timeout
	probeSent        // a probe is out; the timer is the RTO behind it
)

// seqRange is [start, end) in sequence space.
type seqRange struct{ start, end uint32 }

// sends reports whether a connection in this state transmits stream data
// (and so whether output and the retransmission machinery apply to it).
func (s State) sends() bool {
	switch s {
	case StateEstablished, StateCloseWait, StateFinWait1, StateClosing, StateLastAck:
		return true
	}
	return false
}

// sackUpdate merges an ACK's SACK blocks into the scoreboard. Blocks at or
// below the cumulative ACK (already covered, or D-SACK) and blocks claiming
// bytes never sent are ignored.
func (p *pcb) sackUpdate(th *netpkt.TCPHeader) {
	for _, blk := range th.SACK[:th.NSACK] {
		r := seqRange{blk.Start, blk.End}
		if !netpkt.SeqLT(r.start, r.end) || !netpkt.SeqLT(p.sndUna, r.start) || netpkt.SeqLT(p.sndNxt, r.end) {
			continue
		}
		// Ranges [i, j) overlap or touch r and fold into it.
		i := 0
		for i < len(p.sacked) && netpkt.SeqLT(p.sacked[i].end, r.start) {
			i++
		}
		j := i
		for j < len(p.sacked) && netpkt.SeqLEQ(p.sacked[j].start, r.end) {
			if netpkt.SeqLT(p.sacked[j].start, r.start) {
				r.start = p.sacked[j].start
			}
			if netpkt.SeqLT(r.end, p.sacked[j].end) {
				r.end = p.sacked[j].end
			}
			j++
		}
		switch {
		case j > i:
			p.sacked[i] = r
			p.sacked = append(p.sacked[:i+1], p.sacked[j:]...)
		case len(p.sacked) < maxSacked:
			p.sacked = append(p.sacked, seqRange{})
			copy(p.sacked[i+1:], p.sacked[i:])
			p.sacked[i] = r
		}
	}
}

// sackTrim forgets scoreboard ranges the cumulative ACK has reached.
func (p *pcb) sackTrim() {
	n := 0
	for n < len(p.sacked) && netpkt.SeqLEQ(p.sacked[n].start, p.sndUna) {
		n++
	}
	if n > 0 {
		p.sacked = p.sacked[:copy(p.sacked, p.sacked[n:])]
	}
}

// sackedLostEdge is the byte rule: the sequence number below which every
// hole has at least lossSegs segments' worth of SACKed bytes above it, or
// sndUna when no hole has.
func (p *pcb) sackedLostEdge() uint32 {
	need, above := lossSegs*uint32(p.mss), uint32(0)
	for i := len(p.sacked) - 1; i >= 0; i-- {
		above += p.sacked[i].end - p.sacked[i].start
		if above >= need {
			return p.sacked[i].start
		}
	}
	return p.sndUna
}

// unsackedBelow counts the bytes in [sndUna, x) the peer has not SACKed.
func (p *pcb) unsackedBelow(x uint32) uint32 {
	if !netpkt.SeqLT(p.sndUna, x) {
		return 0
	}
	n := x - p.sndUna
	for _, r := range p.sacked {
		if !netpkt.SeqLT(r.start, x) {
			break
		}
		if netpkt.SeqLT(r.end, x) {
			n -= r.end - r.start
		} else {
			n -= x - r.start
		}
	}
	return n
}

// pipe estimates the bytes in the network (RFC 6675 SetPipe): what was sent
// and is neither SACKed nor lost, plus what was lost and retransmitted.
// Outside recovery with an empty scoreboard that is sndNxt - sndUna. A peer
// without SACK says only how many segments left the network, one per
// duplicate ACK, not which: they come off the total.
func (p *pcb) pipe() uint32 {
	if !p.inRecovery {
		return p.unsackedBelow(p.sndNxt)
	}
	rxt := p.rxtNxt
	if netpkt.SeqLT(p.lostTo, rxt) {
		rxt = p.lostTo
	}
	pipe := p.unsackedBelow(p.sndNxt) - p.unsackedBelow(p.lostTo) + p.unsackedBelow(rxt)
	if !p.sackOK {
		pipe -= min32(pipe, uint32(p.dupAcks)*uint32(p.mss))
	}
	return pipe
}

// nextHole returns the first run of un-SACKed bytes at or above from and
// below limit; n == 0 when there is none.
func (p *pcb) nextHole(from, limit uint32) (start, n uint32) {
	for _, r := range p.sacked {
		if netpkt.SeqLT(from, r.start) {
			if netpkt.SeqLT(r.start, limit) {
				limit = r.start
			}
			break
		}
		if netpkt.SeqLT(from, r.end) {
			from = r.end
		}
	}
	if !netpkt.SeqLT(from, limit) {
		return from, 0
	}
	return from, limit - from
}

// topHole returns the highest run of un-SACKed bytes below sndNxt.
func (p *pcb) topHole() (start, end uint32) {
	start, end = p.sndUna, p.sndNxt
	for i := len(p.sacked) - 1; i >= 0; i-- {
		if p.sacked[i].end != end {
			return p.sacked[i].end, end
		}
		end = p.sacked[i].start
	}
	return start, end
}

// detectLoss looks at the evidence an ACK left behind and moves lostTo,
// opening a recovery episode — the one window reduction — if none is open.
func (e *Engine) detectLoss(p *pcb) {
	lost := p.sndUna
	if len(p.sacked) > 0 {
		lost = p.sackedLostEdge()
		if p.probe == probeSent {
			// The probe left a PTO after everything below it. It was
			// SACKed; what lies under it was not: lost.
			lost = p.sacked[len(p.sacked)-1].start
		}
	}
	if next := p.sndUna + uint32(p.mss); !p.sackOK && p.dupAcks >= 3 && netpkt.SeqLT(lost, next) {
		lost = next
	}
	if netpkt.SeqLT(p.sndNxt, lost) {
		lost = p.sndNxt
	}
	if lost == p.sndUna {
		return
	}
	if !p.inRecovery {
		p.ssthresh = p.halfFlight()
		p.cwnd = p.ssthresh
		e.beginEpisode(p)
		e.stats.FastRetx++
	}
	if netpkt.SeqLT(p.lostTo, lost) {
		p.lostTo = lost
	}
}

// halfFlight is Reno's answer to a loss: half of what is outstanding, and
// never less than two segments.
func (p *pcb) halfFlight() uint32 {
	return max32((p.sndNxt-p.sndUna)/2, 2*uint32(p.mss))
}

// beginEpisode opens a recovery episode with nothing yet marked lost. By
// Karn's rule no RTT sample is taken from here to the episode's end.
func (e *Engine) beginEpisode(p *pcb) {
	p.inRecovery = true
	p.recover = p.sndNxt
	p.lostTo, p.rxtNxt = p.sndUna, p.sndUna
	p.rttSeq = 0
	if p.probe == probeSent {
		p.probe = probeIdle // answered; the timer behind it is already the RTO
	}
}

// markAllLost declares everything in flight that the peer has not SACKed
// lost and due for retransmission: what a retransmission timeout and an IP
// restart both mean. Congestion response is the caller's business.
func (e *Engine) markAllLost(p *pcb) {
	e.beginEpisode(p)
	p.lostTo = p.sndNxt
}

// ackInRecovery advances an open episode past a cumulative ACK, or ends it.
func (p *pcb) ackInRecovery() {
	if netpkt.SeqLEQ(p.recover, p.sndUna) {
		p.inRecovery = false
		return
	}
	if netpkt.SeqLT(p.rxtNxt, p.sndUna) {
		p.rxtNxt = p.sndUna
	}
	if !p.sackOK {
		// NewReno: a partial ACK says the segment it stops at is lost too.
		if next := p.sndUna + uint32(p.mss); netpkt.SeqLT(p.lostTo, next) {
			p.lostTo = next
			if netpkt.SeqLT(p.sndNxt, next) {
				p.lostTo = p.sndNxt
			}
		}
	}
}

// retransmitLost re-sends lost holes, lowest first. The segment at the
// cumulative ACK point goes at once if it has not been re-sent yet — the
// fast retransmit proper, and NewReno's answer to a partial ACK (RFC 6675
// step 4.3) — and the rest while the pipe has room for a full segment under
// cwnd (step C: never a sliver of a hole because that is what cwnd had
// left). A hole is re-sent once per episode (rxtNxt); one that reaches the
// FIN re-sends the FIN.
func (e *Engine) retransmitLost(p *pcb) {
	dataEnd := p.sndNxt
	if p.finSent {
		dataEnd = p.finSeq
	}
	for pipe := p.pipe(); !netpkt.SeqLT(p.sndUna, p.rxtNxt) || pipe+uint32(p.mss) <= p.cwnd; {
		from := p.rxtNxt
		if netpkt.SeqLT(from, p.sndUna) {
			from = p.sndUna
		}
		from, n := p.nextHole(from, p.lostTo)
		if n == 0 {
			return
		}
		if from == dataEnd {
			e.emitSegment(p, netpkt.TCPFin|netpkt.TCPAck, p.finSeq, nil, 0, false)
			p.rxtNxt = from + 1
			pipe++
			continue
		}
		room := uint32(p.mss)
		if pipe+room < p.cwnd {
			room = p.cwnd - pipe
		}
		n = min32(min32(n, dataEnd-from), min32(room, e.maxBurst(p)))
		ptrs, got := e.gather(p, from, n)
		if got == 0 {
			return
		}
		e.emitData(p, netpkt.TCPAck|netpkt.TCPPsh, from, ptrs, got, e.tsoSeg(p, got))
		p.rxtNxt = from + got
		pipe += got
	}
}

// armRetx (re)starts the retransmission timer for a connection with data
// outstanding. It is a probe timeout when a probe may be sent — an RTT is
// known, the peer's window is open (a closed one needs the RTO as its
// persist timer) and no probe is already out — and the RTO otherwise. PTO is
// three smoothed round trips plus four mean deviations, plus the peer's
// delayed-ACK allowance when the one segment in flight would not be ACKed at
// once. (RFC 8985 has two round trips and no deviation term. On a host that
// schedules the stack's servers in and out, an ACK is a round trip late
// several times a second, and each such probe is a wasted segment: measured
// on lossless bulk_tso, 11 stray probes a second at 2·srtt, 2 with the
// deviation term, 0.4 as here, for a twentieth of bulk_loss's goodput.) One
// probe per advancing ACK: a path that answers nothing still backs off at
// the RTO's pace.
func (e *Engine) armRetx(p *pcb) {
	d := p.rto
	if p.probe != probeSent {
		p.probe = probeIdle
		if p.srtt > 0 && p.sndWnd > 0 {
			pto := 3*p.srtt + 4*p.rttvar
			if p.sndNxt-p.sndUna <= uint32(p.mss) {
				pto += delAckDelay
			}
			if pto < d {
				d, p.probe = pto, probeArmed
			}
		}
	}
	e.armTimer(p, timerRTO, e.now.Add(d))
}

// probeFire is the probe timeout: the cumulative ACK has not moved for a
// PTO. Two losses leave a sender in that silence, because neither
// elicits a duplicate ACK or a SACK: the tail of the flight, and a
// retransmission. So re-send one segment — the first hole if this episode
// already retransmitted it once, else the highest segment the peer does not
// hold. The window is left alone: if the ACK this draws shows a hole,
// detectLoss marks it; if it simply advances, nothing was lost that the
// probe did not repair. The RTO stays armed behind it.
func (e *Engine) probeFire(p *pcb) {
	p.probe = probeSent
	p.rttSeq = 0 // Karn: the ACK may be for either copy
	e.stats.Probes++
	var start, end uint32
	if p.inRecovery && netpkt.SeqLT(p.sndUna, p.rxtNxt) {
		_, n := p.nextHole(p.sndUna, p.sndNxt)
		start, end = p.sndUna, p.sndUna+min32(n, uint32(p.mss))
	} else if start, end = p.topHole(); end-start > uint32(p.mss) {
		start = end - uint32(p.mss)
	}
	if p.finSent && start == p.finSeq {
		e.emitSegment(p, netpkt.TCPFin|netpkt.TCPAck, p.finSeq, nil, 0, false)
	} else if ptrs, got := e.gather(p, start, end-start); got > 0 {
		e.emitData(p, netpkt.TCPAck|netpkt.TCPPsh, start, ptrs, got, 0)
	}
	e.armTimer(p, timerRTO, e.now.Add(p.rto))
}

// rtoData is the retransmission timeout of a connection in a data state:
// the last resort, when neither SACK evidence nor a probe got an answer.
// Reno's loss response, then everything the peer is not known to hold is
// marked lost and output re-sends it as the collapsed window allows.
func (e *Engine) rtoData(p *pcb) {
	e.stats.RTOs++
	p.ssthresh = p.halfFlight()
	p.cwnd = 2 * uint32(p.mss)
	if p.retxCount > 1 {
		// A second silent timeout: stop trusting the scoreboard (a peer may
		// discard what it SACKed) and resend the whole flight.
		p.sacked = p.sacked[:0]
	}
	e.markAllLost(p)
	e.output(p)
}
