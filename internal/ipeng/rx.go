package ipeng

import (
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// inPkt is one inbound packet parked for a PF verdict or a transport.
type inPkt struct {
	ifc   *iface      // arrival interface
	buf   shm.RichPtr // full RX buffer slice (frame)
	l3Off uint32
	l4Off uint32
	srcIP netpkt.IPAddr
	dstIP netpkt.IPAddr
	proto uint8
	// GRO metadata, parsed at intake while the frame view is in hand:
	// data-bearing TCP segments with only ACK(+PSH) set and no options
	// are coalescing candidates (groOK); the ports and the
	// sequence/ack/window fields decide in-order same-flow adjacency in
	// TCP's GRO slot.
	groOK      bool
	srcPort    uint16
	dstPort    uint16
	tcpSeq     uint32
	tcpAckNo   uint32
	tcpWnd     uint16
	tcpDataOff uint32
	tcpPayLen  uint32
	// next chains the segments of a GRO run: one delivery, one request
	// database entry, every buffer recycled together when TCP
	// acknowledges (or dies).
	next *inPkt
}

// GRO tuning: a merged delivery carries at most groMaxSegs segments (the
// chain is 1 full segment + payload-only views, bounded well under
// msg.MaxPtrs) and at most groMaxBytes of payload.
const (
	groMaxSegs  = 16
	groMaxBytes = 64 << 10
)

// groSlot accumulates an in-order run of same-flow TCP segments, merged into a single OpIPDeliver before dispatch. The run's
// flow, ack and window are its head's. One slot per TCP peer; it never
// survives a loop iteration (Drain flushes).
type groSlot struct {
	head, tail *inPkt
	segs       int
	nextSeq    uint32
	bytes      uint32
}

// fromDriver handles a message from the driver of ifc.
func (e *Engine) fromDriver(ifc *iface, r *msg.Req) {
	switch r.Op {
	case msg.OpRxPacket:
		e.rxPacket(ifc, r)
	case msg.OpTxDone:
		e.txDone(r)
	case msg.OpLinkEvent:
		e.linkChange(ifc, r.Arg[0] == 1)
	case msg.OpDrvInfo:
		for i := 0; i < 6; i++ {
			ifc.mac[i] = byte(r.Arg[0] >> (8 * uint(5-i)))
		}
		ifc.macOK = true
	default:
		// Drivers only send RxPacket/TxDone/LinkEvent/DrvInfo; ignore
		// anything else rather than corrupt engine state.
	}
}

// rxPacket handles one received frame from a driver.
func (e *Engine) rxPacket(ifc *iface, r *msg.Req) {
	ifc.rxOutstanding--
	buf := r.Ptrs[0]
	if r.Arg[1]&msg.FlagCsumBad != 0 {
		// The device's checksum check failed: nothing to parse, but the
		// buffer is ours to free, and freeing it re-supplies the driver.
		e.stats.DropsMalformed++
		e.freeRx(buf)
		return
	}
	view, err := e.cfg.Space.View(buf)
	if err != nil {
		e.supply(ifc, 1)
		return
	}
	e.stats.PktsIn++
	e.stats.BytesIn += uint64(len(view))
	eh, err := netpkt.ParseEth(view)
	if err != nil {
		e.freeRx(buf)
		return
	}
	switch eh.Type {
	case netpkt.EtherTypeARP:
		e.handleARP(ifc, view[netpkt.EthHeaderLen:])
		e.freeRx(buf)
	case netpkt.EtherTypeIPv4:
		e.handleIPv4(ifc, buf, view, r.Arg[1]&msg.FlagCsumOK != 0)
	default:
		e.freeRx(buf)
	}
}

func (e *Engine) handleIPv4(ifc *iface, buf shm.RichPtr, view []byte, csumOK bool) {
	l3 := view[netpkt.EthHeaderLen:]
	ih, err := netpkt.ParseIPv4(l3, !csumOK)
	if err != nil {
		e.stats.DropsMalformed++
		e.freeRx(buf)
		return
	}
	if !e.isLocal(ih.Dst) {
		e.freeRx(buf) // not for us; hosts do not forward
		return
	}
	if int(ih.TotalLen) > len(l3) || ih.HeaderLen > int(ih.TotalLen) {
		e.stats.DropsMalformed++
		e.freeRx(buf)
		return
	}
	pkt := &inPkt{
		ifc:   ifc,
		buf:   buf,
		l3Off: netpkt.EthHeaderLen,
		l4Off: netpkt.EthHeaderLen + uint32(ih.HeaderLen),
		srcIP: ih.Src,
		dstIP: ih.Dst,
		proto: ih.Proto,
	}
	if ih.Proto == netpkt.ProtoTCP {
		// Parse the GRO fields here, while the view is in hand, so GRO
		// needs no second space lookup per segment. A data-bearing
		// segment with only ACK(+PSH) set and no TCP options can merge
		// into TCP's slot. PSH does NOT end a run — the transmitter
		// pushes every burst, so flushing on it would disable coalescing.
		// Options do: a merged run keeps only its lead header, and the
		// extras arrive payload-only, so a trailing segment's SACK blocks
		// would be silently discarded.
		l4 := l3[ih.HeaderLen:]
		if th, err := netpkt.ParseTCP(l4); err == nil {
			pkt.srcPort, pkt.dstPort = th.SrcPort, th.DstPort
			pkt.tcpSeq = th.Seq
			pkt.tcpAckNo = th.Ack
			pkt.tcpWnd = th.Window
			pkt.tcpDataOff = uint32(th.DataOff)
			pkt.tcpPayLen = uint32(len(l4) - th.DataOff)
			pkt.groOK = th.Flags&^(netpkt.TCPAck|netpkt.TCPPsh) == 0 &&
				th.Flags&netpkt.TCPAck != 0 && pkt.tcpPayLen > 0 &&
				th.DataOff == netpkt.TCPHeaderLen
		}
	}
	if e.pf != nil {
		e.pfQuery(pkt)
		return
	}
	e.demux(pkt)
}

// isLocal reports whether ip is one of this host's interface addresses.
// Inbound acceptance is weak-host: a packet for any local address is ours
// no matter which interface it arrived on — multi-homed failover depends on
// it (traffic for a dead wire's address comes in over the surviving one).
func (e *Engine) isLocal(ip netpkt.IPAddr) bool {
	for i := range e.drv {
		if e.drv[i].ifc.cfg.IP == ip {
			return true
		}
	}
	return false
}

// demux hands a passed inbound packet to its protocol; the delivery is
// tracked under that transport's abort scope so only its restart recycles
// it.
func (e *Engine) demux(pkt *inPkt) {
	switch pkt.proto {
	case netpkt.ProtoICMP:
		e.handleICMP(pkt)
		e.recycleRx(pkt)
	case netpkt.ProtoTCP:
		e.groAdd(e.tcp, pkt)
	case netpkt.ProtoUDP:
		e.deliver(e.udp, pkt)
	default:
		e.recycleRx(pkt)
	}
}

// groAdd routes one inbound TCP segment through its peer's GRO slot:
// an in-order continuation of the slot's run joins it; anything else
// flushes the slot first (order to TCP is preserved) and either
// starts a new run or ships solo.
func (e *Engine) groAdd(to *peer, pkt *inPkt) {
	slot := &to.gro
	if h := slot.head; h != nil && pkt.groOK &&
		h.srcIP == pkt.srcIP && h.dstIP == pkt.dstIP &&
		h.srcPort == pkt.srcPort && h.dstPort == pkt.dstPort &&
		slot.nextSeq == pkt.tcpSeq &&
		// Identical ack/window required: the merged delivery carries only
		// the first segment's header, which must fully represent the
		// run's control information.
		h.tcpAckNo == pkt.tcpAckNo && h.tcpWnd == pkt.tcpWnd &&
		slot.segs < groMaxSegs && slot.bytes+pkt.tcpPayLen <= groMaxBytes {
		slot.tail.next = pkt
		slot.tail = pkt
		slot.segs++
		slot.nextSeq += pkt.tcpPayLen
		slot.bytes += pkt.tcpPayLen
		return
	}
	e.groFlush(to)
	if !pkt.groOK {
		e.deliver(to, pkt)
		return
	}
	*slot = groSlot{head: pkt, tail: pkt, segs: 1, nextSeq: pkt.tcpSeq + pkt.tcpPayLen, bytes: pkt.tcpPayLen}
}

// groFlush dispatches the peer's pending run.
func (e *Engine) groFlush(to *peer) {
	if run := to.gro.head; run != nil {
		to.gro = groSlot{}
		e.deliver(to, run)
	}
}

// deliver hands a transport one datagram, one TCP segment, or one GRO run
// (the packets chained from first) as a single OpIPDeliver: the chain is
// the first packet's full L4 view followed by the payload-only views of
// the rest, with the segment count of a merged run in Arg[3].
func (e *Engine) deliver(to *peer, first *inPkt) {
	req := msg.Req{ID: e.db.NewID(), Op: msg.OpIPDeliver}
	for p := first; p != nil; p = p.next {
		off := p.l4Off
		if p != first {
			off += p.tcpDataOff
		}
		req.Ptrs[req.NPtr] = p.buf.Slice(off, p.buf.Len)
		req.NPtr++
	}
	req.Arg[0] = uint64(first.l4Off)
	req.Arg[1] = uint64(first.srcIP.U32())
	req.Arg[2] = uint64(first.dstIP.U32())
	if req.NPtr > 1 {
		req.Arg[3] = uint64(req.NPtr)
		e.stats.GRODeliveries++
		e.stats.GROCoalesced += uint64(req.NPtr - 1)
	}
	e.send(to, &req, first)
}

// recycle is the abort action of a transport's scope, and what its
// OpIPDeliverDone does: acknowledged or dead, the delivery's buffers come
// home.
func (e *Engine) recycle(_ uint64, data any) {
	if pkt, ok := data.(*inPkt); ok {
		e.recycleRx(pkt)
	}
}

// recycleRx frees the receive buffers of a packet (of every packet in a
// GRO run).
func (e *Engine) recycleRx(pkt *inPkt) {
	for ; pkt != nil; pkt = pkt.next {
		e.freeRx(pkt.buf)
	}
}

// handleICMP answers echo requests (the ping path, including the
// ping-of-death resilience demo: malformed ICMP is simply dropped).
func (e *Engine) handleICMP(pkt *inPkt) {
	view, err := e.cfg.Space.View(pkt.buf)
	if err != nil {
		return
	}
	icmp := view[pkt.l4Off:]
	echo, err := netpkt.ParseICMPEcho(icmp)
	if err != nil || echo.Type != netpkt.ICMPEchoRequest {
		e.stats.DropsMalformed++
		return
	}
	e.stats.ICMPEchoes++
	// The reply goes back through our own send path (post-routing filter
	// included) as a transportless packet whose L4 "header" is the whole
	// ICMP message. It is source-bound to the address the echo was
	// addressed to — NOT the egress interface's address: on a multi-homed
	// host the reply may leave through a different NIC than the one carrying
	// the pinged address, and answering from the egress address would break
	// the requester's ID/addr matching.
	out, l4, _ := e.newOut(netpkt.ProtoICMP, pkt.dstIP, pkt.srcIP, len(icmp), nil, 0, 0)
	if out == nil {
		return
	}
	copy(l4, icmp)
	rep := netpkt.ICMPEcho{Type: netpkt.ICMPEchoReply, ID: echo.ID, Seq: echo.Seq}
	rep.Marshal(l4, len(icmp)-netpkt.ICMPHeaderLen)
	e.junctionOut(out)
}
