package tcpeng

import (
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// Receiver reassembly. A segment that arrives above rcvNxt is kept, not
// dropped: its payload views go into the connection's oooQ — sorted by
// sequence number, never overlapping — each holding its reference on the
// deliver cookie exactly as a rcvQ item does, so the bytes stay in IP's
// receive pool until the application has consumed them. Admission is the
// advertised window: everything held lies in [rcvNxt, rcvNxt+rcvWnd), whose
// right edge never moves left, so rcvQ and oooQ together pin at most
// RcvBufLimit bytes of that pool per connection. When rcvNxt reaches the
// head of the queue the contiguous prefix moves to rcvQ. What is held is told
// to the sender in SACK blocks (RFC 2018), which is what lets it repair every
// hole of a window in one round trip.

// maxOOOSegs bounds a reassembly queue's length. A window of full segments
// is 45; the slack is for short ones. Byte admission alone would let a peer
// that sends one-byte segments grow the sorted insert without limit.
const maxOOOSegs = 128

// oooSeg is one held payload view. stamp orders arrivals: SACK blocks are
// reported most recently changed first.
type oooSeg struct {
	seq   uint32
	stamp uint32
	rxItem
}

func (s *oooSeg) end() uint32 { return s.seq + s.payload.Len }

// paySpan is one payload view of a delivery: the lead segment's (payload
// from base on) or a GRO-coalesced trailing segment's (payload only).
type paySpan struct {
	ptr  shm.RichPtr
	base uint32 // payload start within ptr
	n    uint32 // payload bytes in this view
}

// paySpans lists the payload views of a delivery in the engine's scratch.
func (e *Engine) paySpans(th *netpkt.TCPHeader, seg shm.RichPtr, extras []shm.RichPtr) []paySpan {
	spans := append(e.spans[:0], paySpan{ptr: seg, base: uint32(th.DataOff), n: seg.Len - uint32(th.DataOff)})
	for _, ex := range extras {
		spans = append(spans, paySpan{ptr: ex, n: ex.Len})
	}
	e.spans = spans
	return spans
}

// hold takes an out-of-order delivery [seq, seq+plen) into the reassembly
// queue, one entry per payload view. It refuses — false, nothing retained —
// what reaches beyond the advertised window, what overlaps bytes already
// held (an exact duplicate included), and what would overfill the queue.
func (e *Engine) hold(p *pcb, seq, plen uint32, spans []paySpan, deliverID uint64) bool {
	end := seq + plen
	if netpkt.SeqLT(p.rcvNxt+e.rcvWnd(p), end) || len(p.oooQ)+len(spans) > maxOOOSegs {
		return false
	}
	// First held segment at or above seq.
	lo, hi := 0, len(p.oooQ)
	for lo < hi {
		mid := (lo + hi) / 2
		if netpkt.SeqLT(p.oooQ[mid].seq, seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	at := lo
	if at > 0 && netpkt.SeqLT(seq, p.oooQ[at-1].end()) {
		return false
	}
	if at < len(p.oooQ) && netpkt.SeqLT(p.oooQ[at].seq, end) {
		return false
	}
	old := len(p.oooQ)
	for range spans {
		p.oooQ = append(p.oooQ, oooSeg{})
	}
	copy(p.oooQ[at+len(spans):], p.oooQ[at:old])
	p.oooClock++
	for i, sp := range spans {
		p.oooQ[at+i] = oooSeg{seq: seq, stamp: p.oooClock, rxItem: rxItem{
			payload:   sp.ptr.Slice(sp.base, sp.base+sp.n),
			deliverID: deliverID,
		}}
		e.retainDeliver(deliverID)
		seq += sp.n
	}
	e.stats.OOOQueued += uint64(len(spans))
	return true
}

// drainHeld moves the held segments rcvNxt has reached into rcvQ, cookies
// and all.
func (e *Engine) drainHeld(p *pcb) {
	n := 0
	for n < len(p.oooQ) && p.oooQ[n].seq == p.rcvNxt {
		item := p.oooQ[n].rxItem
		p.rcvQ = append(p.rcvQ, item)
		p.rcvQueued += item.payload.Len
		p.rcvNxt += item.payload.Len
		e.stats.BytesIn += uint64(item.payload.Len)
		n++
	}
	if n > 0 {
		p.oooQ = p.oooQ[:copy(p.oooQ, p.oooQ[n:])]
	}
}

// fillSACK writes the connection's held runs into th as SACK blocks: the
// most recently changed run first (RFC 2018: the block containing the
// segment that triggered this ACK), then the next most recent, up to
// netpkt.MaxSACKBlocks. Adjacent held segments are one run.
func (p *pcb) fillSACK(th *netpkt.TCPHeader) {
	var age [netpkt.MaxSACKBlocks]uint32 // oooClock - newest stamp in the run
	th.NSACK = 0
	for i := 0; i < len(p.oooQ); {
		blk := netpkt.SACKBlock{Start: p.oooQ[i].seq, End: p.oooQ[i].end()}
		a := p.oooClock - p.oooQ[i].stamp
		for i++; i < len(p.oooQ) && p.oooQ[i].seq == blk.End; i++ {
			blk.End = p.oooQ[i].end()
			if b := p.oooClock - p.oooQ[i].stamp; b < a {
				a = b
			}
		}
		// Insert by age, youngest first; the oldest falls off the end.
		at := th.NSACK
		for at > 0 && a < age[at-1] {
			at--
		}
		if at == netpkt.MaxSACKBlocks {
			continue
		}
		if th.NSACK < netpkt.MaxSACKBlocks {
			th.NSACK++
		}
		copy(th.SACK[at+1:th.NSACK], th.SACK[at:])
		copy(age[at+1:th.NSACK], age[at:])
		th.SACK[at], age[at] = blk, a
	}
}
