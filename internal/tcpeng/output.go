package tcpeng

import (
	"encoding/binary"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

var zeroTime time.Time

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// maxBurst is the largest payload one OpIPSend carries on this connection.
func (e *Engine) maxBurst(p *pcb) uint32 {
	if e.cfg.TSO {
		return TSOMaxBurst
	}
	return uint32(p.mss)
}

// tsoSeg is the segment size the device splits a burst of got bytes at;
// zero means the burst is one segment already.
func (e *Engine) tsoSeg(p *pcb, got uint32) uint16 {
	if e.cfg.TSO && got > uint32(p.mss) {
		return p.mss
	}
	return 0
}

// output transmits whatever the windows currently allow: first, in a
// recovery episode, the holes marked lost; then queued stream data (as TSO
// bursts or MSS-sized segments) and a queued FIN. The congestion window
// bounds the pipe — what is believed to be in the network — and the peer's
// window bounds sndNxt.
func (e *Engine) output(p *pcb) {
	if !p.state.sends() {
		return
	}
	if p.inRecovery {
		e.retransmitLost(p)
	}
	dataEnd := p.streamEnd
	if p.finQueued {
		dataEnd = p.finSeq
	}
	for netpkt.SeqLT(p.sndNxt, dataEnd) {
		inflight, pipe := p.sndNxt-p.sndUna, p.pipe()
		if inflight >= p.sndWnd || pipe >= p.cwnd {
			// Window closed. With data waiting and nothing in flight, arm
			// the timer so rtoFire sends a zero-window probe (there is no
			// separate persist timer; the RTO doubles as it).
			if p.sndWnd == 0 && inflight == 0 && p.rtoAt.IsZero() {
				e.armRetx(p)
			}
			break
		}
		burst := min32(dataEnd-p.sndNxt, min32(p.sndWnd-inflight, p.cwnd-pipe))
		ptrs, got := e.gather(p, p.sndNxt, min32(burst, e.maxBurst(p)))
		if got == 0 {
			break
		}
		// PSH on every burst boundary: the receiver acks PSH segments
		// immediately, so window tails never stall on the delayed-ACK
		// timer (classic throughput bug for window-limited transfers).
		e.emitData(p, netpkt.TCPAck|netpkt.TCPPsh, p.sndNxt, ptrs, got, e.tsoSeg(p, got))
		p.sndNxt += got
		if p.rttSeq == 0 && !p.inRecovery {
			// Time the burst to its last byte: what a probe timeout must
			// outwait is the ACK of a whole flight, not of its first segment.
			p.rttSeq = p.sndNxt - 1
			p.rttStart = e.now
		}
		e.stats.BytesOut += uint64(got)
	}
	// FIN.
	if p.finQueued && !p.finSent && p.sndNxt == p.finSeq {
		e.emitSegment(p, netpkt.TCPFin|netpkt.TCPAck, p.finSeq, nil, 0, false)
		p.sndNxt = p.finSeq + 1
		p.finSent = true
	}
	if p.sndNxt != p.sndUna && p.rtoAt.IsZero() {
		e.armRetx(p)
	}
}

// gather collects rich pointers covering the stream range
// [from, from+maxBytes), bounded by MaxPtrs-1 (one slot is the header).
func (e *Engine) gather(p *pcb, from, maxBytes uint32) ([]shm.RichPtr, uint32) {
	var out []shm.RichPtr
	got := uint32(0)
	for _, c := range p.stream {
		if got >= maxBytes || len(out) >= msg.MaxPtrs-1 {
			break
		}
		end := c.seq + c.ptr.Len
		if netpkt.SeqLEQ(end, from) {
			continue
		}
		start := uint32(0)
		if netpkt.SeqLT(c.seq, from) {
			start = from - c.seq
		}
		take := min32(c.ptr.Len-start, maxBytes-got)
		out = append(out, c.ptr.Slice(start, start+take))
		got += take
		from += take
	}
	return out, got
}

// emitData sends a data segment (or TSO burst).
func (e *Engine) emitData(p *pcb, flags uint8, seq uint32, payload []shm.RichPtr, plen uint32, segSize uint16) {
	e.emit(p, flags, seq, payload, plen, segSize, false)
}

// emitSegment sends a control segment (SYN, SYN|ACK, FIN, pure ACK). syn
// adds the SYN family's options: MSS, and SACK-permitted — offered on a SYN,
// echoed on a SYN-ACK when the SYN carried it.
func (e *Engine) emitSegment(p *pcb, flags uint8, seq uint32, payload []shm.RichPtr, plen uint32, syn bool) {
	e.emit(p, flags, seq, payload, plen, 0, syn)
}

// emit builds one segment and queues it for IP. A pure ACK reports what the
// reassembly queue holds in SACK blocks; data segments carry no options, so
// TSO and the peer's GRO see fixed 20-byte headers.
func (e *Engine) emit(p *pcb, flags uint8, seq uint32, payload []shm.RichPtr, plen uint32, segSize uint16, syn bool) {
	hdrPtr, hdrBuf, err := e.hdrPool.Alloc()
	if err != nil {
		return // out of header chunks: the RTO will retry
	}
	th := netpkt.TCPHeader{
		SrcPort: p.localPort, DstPort: p.remotePort,
		Seq: seq, Flags: flags,
		Window: uint16(min32(e.rcvWnd(p), 65535)),
	}
	if flags&netpkt.TCPAck != 0 {
		th.Ack = p.rcvNxt
	}
	if syn {
		th.MSS = MSS
		th.SACKPermitted = p.sackOK
	} else if flags == netpkt.TCPAck && plen == 0 && len(p.oooQ) > 0 && p.sackOK {
		p.fillSACK(&th)
	}
	hlen := th.MarshalLen()
	th.Marshal(hdrBuf)
	hdr := hdrPtr.Slice(0, uint32(hlen))

	src := p.localIP
	if src == (netpkt.IPAddr{}) {
		src = e.srcFor(p.remoteIP)
	}
	offload := uint64(0)
	if e.cfg.Offload {
		offload = msg.OffloadCsumL4
		if segSize > 0 {
			offload |= msg.OffloadTSO
		}
	} else {
		e.softwareChecksum(p, src, hdrBuf[:hlen], payload, plen)
	}

	id := e.db.NewID()
	if plen > 0 && netpkt.SeqLT(seq, p.sndNxt) {
		// This frame re-covers bytes already transmitted once. A cumulative
		// ACK for them — elicited by the earlier copy — can arrive while the
		// NIC is still reading this one; recycling their ring space then
		// would let the app overwrite memory mid-transmit. Tag the frame so
		// recycleAcked defers until it completes (sendDone or crash abort).
		e.retxFrames[id] = p.id
		p.retxPending++
		e.stats.Retransmits++
	}
	e.trackFrame(id, hdr)
	req := msg.Req{ID: id, Op: msg.OpIPSend, Flow: p.id}
	req.AppendChain(hdr)
	req.AppendChain(payload...)
	req.Arg[0] = uint64(netpkt.ProtoTCP) | uint64(segSize)<<16
	req.Arg[1] = uint64(src.U32())
	req.Arg[2] = uint64(p.remoteIP.U32())
	req.Arg[3] = offload
	e.toIP = append(e.toIP, req)
	e.stats.SegsOut++

	// Any segment carrying ACK satisfies pending ack obligations.
	if flags&netpkt.TCPAck != 0 {
		p.ackPending = 0
		if !p.delAckAt.IsZero() {
			e.disarmTimer(p, timerDelAck)
		}
	}
}

// softwareChecksum computes the full TCP checksum when offload is off.
func (e *Engine) softwareChecksum(p *pcb, src netpkt.IPAddr, hdr []byte, payload []shm.RichPtr, plen uint32) {
	acc := netpkt.PseudoSum(src, p.remoteIP, netpkt.ProtoTCP, uint16(uint32(len(hdr))+plen))
	var flat []byte
	flat = append(flat, hdr...)
	for _, ptr := range payload {
		if v, err := e.cfg.Space.View(ptr); err == nil {
			flat = append(flat, v...)
		}
	}
	binary.BigEndian.PutUint16(hdr[16:18], netpkt.Fold16(netpkt.Sum16(flat, acc)))
}

// sendAck emits an immediate pure ACK.
func (e *Engine) sendAck(p *pcb) {
	e.emitSegment(p, netpkt.TCPAck, p.sndNxt, nil, 0, false)
}

// sendRstFor answers a segment for a nonexistent connection with RST —
// how peers of connections lost in a TCP server crash learn their fate.
func (e *Engine) sendRstFor(th netpkt.TCPHeader, srcIP, localIP netpkt.IPAddr) {
	hdrPtr, hdrBuf, err := e.hdrPool.Alloc()
	if err != nil {
		return
	}
	rst := netpkt.TCPHeader{
		SrcPort: th.DstPort, DstPort: th.SrcPort,
		Flags: netpkt.TCPRst | netpkt.TCPAck,
		Ack:   th.Seq + 1,
	}
	if th.Flags&netpkt.TCPAck != 0 {
		rst.Seq = th.Ack
		rst.Flags = netpkt.TCPRst
		rst.Ack = 0
	}
	hlen := rst.MarshalLen()
	rst.Marshal(hdrBuf)
	hdr := hdrPtr.Slice(0, uint32(hlen))
	offload := uint64(0)
	if e.cfg.Offload {
		offload = msg.OffloadCsumL4
	} else {
		acc := netpkt.PseudoSum(localIP, srcIP, netpkt.ProtoTCP, uint16(hlen))
		binary.BigEndian.PutUint16(hdrBuf[16:18], netpkt.Fold16(netpkt.Sum16(hdrBuf[:hlen], acc)))
	}
	id := e.db.NewID()
	e.db.Track(id, "ip", hdr, func(_ uint64, data any) {
		if ptr, ok := data.(shm.RichPtr); ok {
			_ = e.hdrPool.Free(ptr)
		}
	})
	req := msg.Req{ID: id, Op: msg.OpIPSend}
	req.SetChain([]shm.RichPtr{hdr})
	req.Arg[0] = uint64(netpkt.ProtoTCP)
	req.Arg[1] = uint64(localIP.U32())
	req.Arg[2] = uint64(srcIP.U32())
	req.Arg[3] = offload
	e.toIP = append(e.toIP, req)
	e.stats.RSTsSent++
	e.stats.SegsOut++
}

// Tick fires every per-connection timer whose deadline is at or before now —
// retransmission, delayed ACK, TIME-WAIT reaping, and handshake retries —
// earliest first. Cost scales with due timers, not connections: an idle
// connection contributes nothing here. A handler re-arms at now plus a
// positive delay, so the loop ends. Tick times itself for TickStats: the
// passed-in now cannot measure this iteration.
func (e *Engine) Tick(now time.Time) {
	t0 := time.Now()
	e.now = now
	for t, ok := e.timers.popDue(now); ok; t, ok = e.timers.popDue(now) {
		e.fireTimer(t.p, t.kind)
	}
	e.flushIfDue()
	e.tickCount.Add(1)
	e.tickNanos.Add(uint64(time.Since(t0)))
}

// trackFrame enters a frame handed to IP in the request database. Abort
// action on IP crash: release the header chunk; the data itself is
// resubmitted by OnIPRestart through the scoreboard.
func (e *Engine) trackFrame(id uint64, hdr shm.RichPtr) {
	e.db.Track(id, "ip", hdr, func(aborted uint64, data any) {
		if ptr, ok := data.(shm.RichPtr); ok {
			_ = e.hdrPool.Free(ptr)
		}
		e.retxDone(aborted)
	})
}

// fireTimer dispatches one due timer.
func (e *Engine) fireTimer(p *pcb, kind int) {
	switch kind {
	case timerDelAck:
		e.sendAck(p)
	case timerTimeWait:
		if p.state == StateTimeWait {
			e.destroy(p)
		}
	case timerRTO:
		if p.probe == probeArmed {
			e.probeFire(p)
		} else {
			e.rtoFire(p)
		}
	}
}

// rtoFire is the retransmission timeout. retxCount counts CONSECUTIVE
// fires — any advancing ACK resets it — so a long-lived bulk stream does not
// accumulate isolated timeouts into a spurious local reset.
func (e *Engine) rtoFire(p *pcb) {
	p.retxCount++
	p.probe = probeIdle
	switch p.state {
	case StateSynSent, StateSynRcvd:
		if p.retxCount > 6 {
			if p.pendingConnect != 0 {
				e.reply(p.pendingConnect, p.id, msg.StatusErrTimedOut)
				p.pendingConnect = 0
				e.destroy(p)
				return
			}
			if p.state == StateSynSent {
				// Nonblocking active open gave up: keep the pcb visible as
				// failed so the app's connect poll learns the outcome.
				e.parkFailed(p, msg.StatusErrTimedOut)
				e.event(p, msg.EvError|msg.EvWritable)
				return
			}
			e.destroy(p)
			return
		}
		flags := uint8(netpkt.TCPSyn)
		if p.state == StateSynRcvd {
			flags |= netpkt.TCPAck
		}
		e.emitSegment(p, flags, p.iss, nil, 0, true)
	default:
		if p.retxCount > 10 {
			e.connReset(p)
			return
		}
		if p.sndWnd == 0 {
			// Zero-window probe: one byte past the window keeps the
			// connection alive until the peer's window update arrives.
			ptrs, got := e.gather(p, p.sndUna, 1)
			if got > 0 {
				e.emitData(p, netpkt.TCPAck, p.sndUna, ptrs, got, 0)
			} else {
				e.sendAck(p)
			}
			break
		}
		e.rtoData(p)
	}
	p.rto *= 2
	if p.rto > maxRTO {
		p.rto = maxRTO
	}
	e.armTimer(p, timerRTO, e.now.Add(p.rto))
}

// Deadline returns the earliest armed timer's deadline, exactly, or the
// flush time of an outstanding coalesced state save if that comes first.
// O(1), independent of connections.
func (e *Engine) Deadline(now time.Time) time.Time {
	min := e.timers.next()
	if t := e.save.Deadline(len(e.byID)); !t.IsZero() && (min.IsZero() || t.Before(min)) {
		min = t
	}
	return min
}
