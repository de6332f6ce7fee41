package ipeng

import (
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// outPkt is one outbound frame in flight inside IP.
type outPkt struct {
	ifc     *iface      // egress interface
	hdr     shm.RichPtr // eth+ip+l4 combined header chunk (ours to free)
	hdrView []byte
	payload []shm.RichPtr
	// totalLen is the frame length, for the byte counters.
	totalLen int
	offload  uint64
	segSize  uint16
	nextHop  netpkt.IPAddr
	// dstMAC is the resolved next hop's address, kept so a driver restart
	// can frame the packet again without asking ARP.
	dstMAC netpkt.MAC
	// dstIP/srcIP are the packet's addresses as routed, kept so a link
	// failure can re-run route() for packets parked awaiting ARP.
	dstIP netpkt.IPAddr
	srcIP netpkt.IPAddr
	// src is the transport peer that asked and origID its request, so the
	// completion goes home to the transport that sent it; nil for frames the
	// engine originates itself (ICMP replies, ARP).
	src    *peer
	origID uint64
	// arp marks link-local ARP chatter: not counted as a packet and never
	// resubmitted after a driver crash (the resolution timer retries).
	arp bool
}

// fromTransport handles a message from TCP or from UDP.
func (e *Engine) fromTransport(src *peer, r *msg.Req) {
	switch r.Op {
	case msg.OpIPSend:
		e.sendOut(src, r)
	case msg.OpIPDeliverDone:
		// The transport is finished with an RX buffer (or, for a merged
		// GRO delivery, with the whole run's buffers).
		if data, ok := e.db.Complete(r.ID); ok {
			e.recycle(r.ID, data)
		}
	default:
		// Transports only send IPSend/DeliverDone; ignore anything else
		// rather than corrupt engine state on a confused peer.
	}
}

// route is the multi-homed route table: it picks the egress interface and
// next hop for dst, honoring link state and source binding. src is the
// packet's (possibly zero) source address; a non-zero src that matches an
// interface address binds the packet to that interface when it has any
// route to dst.
//
// Every live interface contributes up to one candidate — a connected-subnet
// route (next hop = dst) or a gateway route (next hop = GW) — and the best
// candidate wins by precedence:
//
//	bound+direct > direct > bound+gateway > gateway
//
// Destination specificity comes first (longest-prefix-match: a connected
// subnet always beats a default gateway), source binding breaks ties among
// equally specific routes. Interfaces whose link is down never match, which
// is what makes a dst normally reached over a dead wire fail over to
// another live subnet or gateway route. Remaining ties keep configuration
// order.
func (e *Engine) route(dst, src netpkt.IPAddr) (*iface, netpkt.IPAddr, bool) {
	const (
		bound   = 1
		gateway = 2
		direct  = 4
	)
	var (
		best      *iface
		bestHop   netpkt.IPAddr
		bestScore int
	)
	for i := range e.drv {
		ifc := e.drv[i].ifc
		if !ifc.linkUp {
			continue
		}
		score, hop := 0, netpkt.IPAddr{}
		switch {
		case dst.InSubnet(ifc.cfg.IP, ifc.cfg.MaskBits):
			score, hop = direct, dst
		case ifc.cfg.GW != (netpkt.IPAddr{}):
			score, hop = gateway, ifc.cfg.GW
		default:
			continue // no route to dst via this interface
		}
		if src != (netpkt.IPAddr{}) && src == ifc.cfg.IP {
			score += bound
		}
		if score > bestScore {
			best, bestHop, bestScore = ifc, hop, score
		}
	}
	return best, bestHop, best != nil
}

// linkChange applies a driver's link transition to the route table. On a
// down edge, every packet parked on the interface awaiting ARP resolution
// is re-routed through a surviving interface — or failed back to its
// transport with StatusErrNoRoute — instead of staying silently parked on a
// wire that can no longer carry it. (Frames already posted to the device
// fail fast through their TxDone completions; the transports' RTO path then
// retransmits via the new route.)
func (e *Engine) linkChange(ifc *iface, up bool) {
	if ifc.linkUp == up {
		return
	}
	ifc.linkUp = up
	if up {
		e.stats.LinkUps++
		return
	}
	e.stats.LinkDowns++
	for hop := range ifc.pending {
		for _, pkt := range ifc.forget(hop) {
			e.reroute(pkt)
		}
	}
}

// reroute re-runs the route table for a parked packet whose egress link
// died; with no surviving route the packet fails back to its transport.
// The survivor is a different interface, so the packet goes back through
// the outbound PF junction — its earlier verdict was for the dead egress,
// and per-interface policy may differ on the new one.
func (e *Engine) reroute(pkt *outPkt) {
	ifc, hop, ok := e.route(pkt.dstIP, pkt.srcIP)
	if !ok {
		e.stats.DropsNoRoute++
		e.finish(pkt, msg.StatusErrNoRoute)
		return
	}
	e.stats.Rerouted++
	pkt.ifc, pkt.nextHop = ifc, hop
	e.junctionOut(pkt)
}

// newOut routes a packet to dst and starts its frame in one chunk of the
// header pool: room for the Ethernet header (filled in once the next hop
// resolves), the IPv4 header, then l4Len bytes of L4 header for the caller
// to fill before the packet goes to junctionOut. Pools are immutable to
// consumers, so IP copies the header it must complete (paper §V-C: "As the
// headers are tiny, we combine them with IP headers in one chunk"). A zero
// src takes the egress interface's address. With no packet, the status
// says why.
func (e *Engine) newOut(proto uint8, src, dst netpkt.IPAddr, l4Len int, payload []shm.RichPtr, offloadReq uint64, segSize uint16) (*outPkt, []byte, int32) {
	ifc, nextHop, ok := e.route(dst, src)
	if !ok {
		e.stats.DropsNoRoute++
		return nil, nil, msg.StatusErrNoRoute
	}
	if src == (netpkt.IPAddr{}) {
		src = ifc.cfg.IP
	}
	hdrLen := netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + l4Len
	if hdrLen > HdrChunkSize {
		return nil, nil, msg.StatusErrInval
	}
	payloadLen := 0
	for _, p := range payload {
		payloadLen += int(p.Len)
	}
	hdrPtr, hdrBuf, err := e.hdrPool.Alloc()
	if err != nil {
		return nil, nil, msg.StatusErrNoBufs
	}
	offload := uint64(0)
	if e.cfg.Offload {
		offload = msg.OffloadCsumIP | offloadReq&msg.OffloadCsumL4
		if offloadReq&msg.OffloadTSO != 0 && segSize > 0 {
			offload |= msg.OffloadTSO
		}
	} else {
		segSize = 0 // no TSO without offload
	}
	e.ipid++
	ih := netpkt.IPv4Header{
		TotalLen: uint16(hdrLen - netpkt.EthHeaderLen + payloadLen), ID: e.ipid, Flags: netpkt.IPFlagDF,
		TTL: netpkt.DefaultTTL, Proto: proto, Src: src, Dst: dst,
	}
	ih.Marshal(hdrBuf[netpkt.EthHeaderLen:], !e.cfg.Offload)
	return &outPkt{
		ifc:      ifc,
		hdr:      hdrPtr.Slice(0, uint32(hdrLen)),
		hdrView:  hdrBuf[:hdrLen],
		payload:  append([]shm.RichPtr(nil), payload...),
		totalLen: hdrLen + payloadLen,
		offload:  offload,
		segSize:  segSize,
		nextHop:  nextHop,
		dstIP:    dst,
		srcIP:    src,
	}, hdrBuf[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen : hdrLen], msg.StatusOK
}

// sendOut builds the full frame header for a transport payload and routes
// it through the PF junction towards a driver.
func (e *Engine) sendOut(src *peer, r *msg.Req) {
	proto := uint8(netpkt.ProtoUDP)
	if src.Kind == PeerTCP {
		proto = netpkt.ProtoTCP
	}
	// Resolve the transport's header chunk and payload chain.
	chain := r.Chain()
	if len(chain) == 0 {
		e.reply(src, r.ID, msg.StatusErrInval)
		return
	}
	l4hdr, err := e.cfg.Space.View(chain[0])
	if err != nil {
		e.reply(src, r.ID, msg.StatusErrInval)
		return
	}
	pkt, l4, status := e.newOut(proto, netpkt.IPFromU32(uint32(r.Arg[1])), netpkt.IPFromU32(uint32(r.Arg[2])),
		len(l4hdr), chain[1:], r.Arg[3], uint16(r.Arg[0]>>16))
	if pkt == nil {
		e.reply(src, r.ID, status)
		return
	}
	copy(l4, l4hdr)
	pkt.src, pkt.origID = src, r.ID
	e.junctionOut(pkt)
}

// junctionOut runs the post-routing PF query, or proceeds directly when
// the filter is disabled.
func (e *Engine) junctionOut(pkt *outPkt) {
	if e.pf != nil {
		e.pfQuery(pkt)
		return
	}
	e.resolveAndSend(pkt)
}

// pfQuery asks the filter for a verdict on a packet at the T junction: an
// *outPkt after routing (PF sees it from the IP header on), an *inPkt
// before demux. Every query — first submission or resubmission after a PF
// crash, any number of times — is built here.
func (e *Engine) pfQuery(pkt any) {
	q := msg.Req{ID: e.db.NewID(), Op: msg.OpPFQuery}
	switch p := pkt.(type) {
	case *outPkt:
		q.Arg[0] = 1 // direction: out
		q.Arg[1] = p.ifc.packedName
		q.Ptrs[0] = p.hdr.Slice(netpkt.EthHeaderLen, p.hdr.Len)
		q.NPtr = uint8(1 + copy(q.Ptrs[1:], p.payload))
	case *inPkt:
		q.Arg[1] = p.ifc.packedName
		q.Ptrs[0] = p.buf.Slice(p.l3Off, p.buf.Len)
		q.NPtr = 1
	}
	e.send(e.pf, &q, pkt)
}

// pfAborted is the abort action of the PF scope: the filter crashed
// before answering, so the query is resubmitted — no loss.
func (e *Engine) pfAborted(_ uint64, pkt any) {
	e.stats.PFResubmitted++
	e.pfQuery(pkt)
}

// verdict handles PF's answer to a query.
func (e *Engine) verdict(r *msg.Req) {
	if r.Op != msg.OpPFVerdict {
		return
	}
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return // pre-crash verdict; the query was resubmitted
	}
	if r.Status != 0 {
		e.stats.Blocked++
	}
	switch pkt := data.(type) {
	case *outPkt:
		if r.Status != 0 {
			e.finish(pkt, msg.StatusErrBlocked)
			return
		}
		e.resolveAndSend(pkt)
	case *inPkt:
		if r.Status != 0 {
			e.recycleRx(pkt)
			return
		}
		e.demux(pkt)
	}
}

// resolveAndSend ARP-resolves the next hop and hands the frame to the
// driver.
func (e *Engine) resolveAndSend(pkt *outPkt) {
	ifc := pkt.ifc
	mac, ok := ifc.arp[pkt.nextHop]
	if !ok {
		if len(ifc.pending[pkt.nextHop]) >= arpQueueCap {
			e.finish(pkt, msg.StatusErrNoBufs)
			return
		}
		ifc.pending[pkt.nextHop] = append(ifc.pending[pkt.nextHop], pkt)
		if t, sent := ifc.arpSent[pkt.nextHop]; !sent || e.now.Sub(t) >= arpTimeout {
			e.arpRequest(ifc, pkt.nextHop)
		}
		return
	}
	pkt.dstMAC = mac
	e.frameOut(pkt)
}

// frameOut completes the Ethernet header of a resolved packet and submits
// it.
func (e *Engine) frameOut(pkt *outPkt) {
	eh := netpkt.EthHeader{Dst: pkt.dstMAC, Src: pkt.ifc.mac, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(pkt.hdrView)
	e.txSubmit(pkt)
}

// txSubmit hands one frame — a packet, an ARP request, an ARP reply — to
// its interface's driver.
func (e *Engine) txSubmit(pkt *outPkt) {
	req := msg.Req{ID: e.db.NewID(), Op: msg.OpTxSubmit}
	req.Ptrs[0] = pkt.hdr
	req.NPtr = uint8(1 + copy(req.Ptrs[1:], pkt.payload))
	req.Arg[0] = pkt.offload
	req.Arg[1] = uint64(pkt.segSize)
	e.send(pkt.ifc.drv, &req, pkt)
}

// txAborted is the abort action of a driver's scope: the driver crashed
// with the frame possibly untransmitted. The paper prefers duplicates over
// silence — resubmit; an ARP frame is only freed.
func (e *Engine) txAborted(_ uint64, data any) {
	pkt := data.(*outPkt)
	if pkt.arp {
		e.finish(pkt, msg.StatusOK)
		return
	}
	e.stats.TxResubmitted++
	e.frameOut(pkt)
}

// txDone finishes an outbound frame on the driver's completion.
func (e *Engine) txDone(r *msg.Req) {
	if r.Status != msg.StatusOK {
		e.stats.DropsRingFull++
	}
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return
	}
	pkt, ok := data.(*outPkt)
	if !ok {
		return
	}
	if !pkt.arp {
		e.stats.PktsOut++
		e.stats.BytesOut += uint64(pkt.totalLen)
	}
	e.finish(pkt, r.Status)
}

// finish ends an outbound frame's life, sent or failed: free our header
// chunk and complete the transport's request, if a transport asked.
func (e *Engine) finish(pkt *outPkt, status int32) {
	_ = e.hdrPool.Free(pkt.hdr)
	if pkt.src != nil {
		e.reply(pkt.src, pkt.origID, status)
	}
}

// reply completes a transport's OpIPSend.
func (e *Engine) reply(to *peer, id uint64, status int32) {
	to.out = append(to.out, msg.Req{ID: id, Op: msg.OpIPSendDone, Status: status})
}

// arpSweep is the resolution timer, run when the earliest ARP request
// times out: neighbors with packets queued whose last ARP request timed out
// (or never left, under header-pool pressure) are retried, and after
// maxARPTries *sent* requests the queue is failed (StatusErrNoRoute) so the
// transports see an error and the pool chunks are freed. A later packet
// for the same neighbor starts a fresh episode. It leaves arpDue at the
// earliest timeout still outstanding.
func (e *Engine) arpSweep() {
	e.arpDue = time.Time{}
	for i := range e.drv {
		ifc := e.drv[i].ifc
		for target := range ifc.pending {
			if sentAt, ok := ifc.arpSent[target]; ok && e.now.Sub(sentAt) < arpTimeout {
				continue
			}
			if !ifc.linkUp || ifc.arpTries[target] >= maxARPTries {
				for _, pkt := range ifc.forget(target) {
					e.stats.ARPFailed++
					e.finish(pkt, msg.StatusErrNoRoute)
				}
				continue
			}
			e.arpRequest(ifc, target)
		}
		// Resolution state with no waiters (e.g. queue failed on
		// link-down) expires quietly.
		for target, sentAt := range ifc.arpSent {
			if len(ifc.pending[target]) == 0 && e.now.Sub(sentAt) >= arpTimeout {
				delete(ifc.arpSent, target)
				delete(ifc.arpTries, target)
				continue
			}
			e.arpDue = earliest(e.arpDue, sentAt.Add(arpTimeout))
		}
	}
}

// arpRequest asks who has target. The attempt timestamp is recorded even
// when the header pool is exhausted (rate-limiting retries under pressure),
// but the give-up budget is only charged for requests that actually went
// out — transient buffer pressure must not turn into a permanent
// EHOSTUNREACH for a neighbor that was never probed.
func (e *Engine) arpRequest(ifc *iface, target netpkt.IPAddr) {
	ifc.arpSent[target] = e.now
	e.arpDue = earliest(e.arpDue, e.now.Add(arpTimeout))
	if e.arpOut(ifc, netpkt.ARPRequest, netpkt.Broadcast, netpkt.MAC{}, target) {
		ifc.arpTries[target]++
		e.stats.ARPRequests++
	}
}

// arpOut emits one ARP frame from ifc; false means the header pool had no
// chunk for it.
func (e *Engine) arpOut(ifc *iface, op uint16, ethDst, targetMAC netpkt.MAC, targetIP netpkt.IPAddr) bool {
	hdrPtr, buf, err := e.hdrPool.Alloc()
	if err != nil {
		return false
	}
	eh := netpkt.EthHeader{Dst: ethDst, Src: ifc.mac, Type: netpkt.EtherTypeARP}
	eh.Marshal(buf)
	ap := netpkt.ARPPacket{
		Op: op, SenderMAC: ifc.mac, SenderIP: ifc.cfg.IP,
		TargetMAC: targetMAC, TargetIP: targetIP,
	}
	ap.Marshal(buf[netpkt.EthHeaderLen:])
	e.txSubmit(&outPkt{ifc: ifc, arp: true, hdr: hdrPtr.Slice(0, netpkt.EthHeaderLen+netpkt.ARPLen)})
	return true
}

// handleARP learns the sender of any ARP frame, releases the packets that
// were waiting for it, and answers requests for this interface's address.
func (e *Engine) handleARP(ifc *iface, b []byte) {
	ap, err := netpkt.ParseARP(b)
	if err != nil {
		return
	}
	ifc.arp[ap.SenderIP] = ap.SenderMAC
	for _, pkt := range ifc.forget(ap.SenderIP) {
		pkt.dstMAC = ap.SenderMAC
		e.frameOut(pkt)
	}
	if ap.Op == netpkt.ARPRequest && ap.TargetIP == ifc.cfg.IP &&
		e.arpOut(ifc, netpkt.ARPReply, ap.SenderMAC, ap.SenderMAC, ap.SenderIP) {
		e.stats.ARPReplies++
	}
}
