package layers

import (
	"errors"
	"fmt"
	"time"

	"newtos/internal/ipeng"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

const ipBatch = 32

// driveIP measures the IP engine with full-size TCP segments (the bulk_mss
// shape) and the PF junction on: the transmit path from a transport's
// OpIPSend through the verdict and the driver's completion back to the
// transport, the receive path from the driver's OpRxPacket through the
// verdict and GRO to the transport, and the transport's release of the
// buffers, which is also where the engine hands the driver fresh ones
// (supply_ns_per_buf). PF and the driver answer at once, so only the
// engine's own work is on the stopwatch.
func driveIP(b *bench) error {
	space := shm.NewSpace()
	self, peer := netpkt.IPAddr{10, 0, 0, 1}, netpkt.IPAddr{10, 0, 0, 2}
	selfMAC, peerMAC := netpkt.MAC{0xaa, 0, 0, 0, 0, 1}, netpkt.MAC{0xbb, 0, 0, 0, 0, 1}
	e, err := ipeng.New(ipeng.Config{
		Space:     space,
		Ifaces:    []ipeng.IfaceConfig{{Name: "eth0", IP: self, MaskBits: 24}},
		PFEnabled: true, Offload: true,
	})
	if err != nil {
		return err
	}
	e.SetMAC("eth0", selfMAC)
	now := time.Unix(1_000_000, 0)

	// The transport's pools: one header chunk and one MSS payload per packet.
	hdrPool, err := space.NewPool("t.hdr", 64, ipBatch)
	if err != nil {
		return err
	}
	payPool, err := space.NewPool("t.pay", 2048, ipBatch)
	if err != nil {
		return err
	}
	const mss = 1460
	var sends []msg.Req
	for i := 0; i < ipBatch; i++ {
		hp, hb, err := hdrPool.Alloc()
		if err != nil {
			return err
		}
		pp, _, err := payPool.Alloc()
		if err != nil {
			return err
		}
		th := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Seq: uint32(i * mss), Flags: netpkt.TCPAck, Window: 65535}
		th.Marshal(hb)
		r := msg.Req{Op: msg.OpIPSend}
		r.SetChain([]shm.RichPtr{hp.Slice(0, netpkt.TCPHeaderLen), pp.Slice(0, mss)})
		r.Arg[0] = uint64(netpkt.ProtoTCP)
		r.Arg[1], r.Arg[2] = uint64(self.U32()), uint64(peer.U32())
		r.Arg[3] = msg.OffloadCsumL4
		sends = append(sends, r)
	}

	// verdicts answers every pending PF query with "pass".
	verdicts := func() {
		qs := e.DrainToPF()
		for i := range qs {
			qs[i] = msg.Req{ID: qs[i].ID, Op: msg.OpPFVerdict}
		}
		e.FromPFBatch(qs, now)
	}

	// Supply the driver, then teach the engine the peer's MAC with an ARP
	// reply, as the first packet of any workload does.
	var rxBufs []shm.RichPtr
	takeSupply := func() {
		for _, r := range e.DrainToDriver("eth0") {
			if r.Op == msg.OpRxSupply {
				rxBufs = append(rxBufs, r.Ptrs[0])
			}
		}
	}
	e.SupplyDriver("eth0")
	takeSupply()
	if len(rxBufs) == 0 {
		return errors.New("no receive buffers supplied")
	}
	arpBuf := rxBufs[0]
	rxBufs = rxBufs[1:]
	view, err := space.View(arpBuf)
	if err != nil {
		return err
	}
	eh := netpkt.EthHeader{Dst: selfMAC, Src: peerMAC, Type: netpkt.EtherTypeARP}
	eh.Marshal(view)
	arp := netpkt.ARPPacket{Op: netpkt.ARPReply, SenderMAC: peerMAC, SenderIP: peer, TargetMAC: selfMAC, TargetIP: self}
	arp.Marshal(view[netpkt.EthHeaderLen:])
	in := msg.Req{Op: msg.OpRxPacket}
	in.SetChain([]shm.RichPtr{arpBuf.Slice(0, netpkt.EthHeaderLen+netpkt.ARPLen)})
	e.FromDriver("eth0", in, now)
	takeSupply()

	var stepErr error
	var sw stopwatch
	var id uint64
	tx := b.run("ipeng.tx", func() int {
		for i := range sends {
			id++
			sends[i].ID = id
		}
		done := 0
		sw.time(func() {
			e.FromTransportBatch(netpkt.ProtoTCP, sends, now)
			verdicts()
			out := e.DrainToDriver("eth0")
			n := 0
			for _, r := range out {
				if r.Op == msg.OpTxSubmit {
					out[n] = msg.Req{ID: r.ID, Op: msg.OpTxDone, Status: msg.StatusOK}
					n++
				}
			}
			e.FromDriverBatch("eth0", out[:n], now)
			for _, r := range e.DrainToTCP() {
				if r.Op == msg.OpIPSendDone && r.Status == msg.StatusOK {
					done++
				}
			}
		})
		if done != len(sends) && stepErr == nil {
			stepErr = fmt.Errorf("transmit: %d of %d packets completed", done, len(sends))
		}
		return len(sends)
	})
	if stepErr != nil {
		return stepErr
	}
	b.rep.add("ipeng.tx_ns_per_pkt", float64(sw.total)/float64(tx.units), "ns")

	// Receive: in-order segments of one flow, so GRO merges them as it
	// does on a bulk receiver.
	frameLen := netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + netpkt.TCPHeaderLen + mss
	var seq uint32
	fillFrame := func(buf shm.RichPtr) error {
		v, err := space.View(buf)
		if err != nil {
			return err
		}
		eh := netpkt.EthHeader{Dst: selfMAC, Src: peerMAC, Type: netpkt.EtherTypeIPv4}
		eh.Marshal(v)
		ih := netpkt.IPv4Header{
			TotalLen: uint16(frameLen - netpkt.EthHeaderLen), TTL: 64,
			Proto: netpkt.ProtoTCP, Src: peer, Dst: self,
		}
		ih.Marshal(v[netpkt.EthHeaderLen:], true)
		th := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Seq: seq, Flags: netpkt.TCPAck, Window: 65535}
		th.Marshal(v[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:])
		seq += mss
		return nil
	}
	sw.reset()
	var supply stopwatch
	supplied := 0
	batch := make([]msg.Req, 0, ipBatch)
	rx := b.run("ipeng.rx", func() int {
		batch = batch[:0]
		for len(batch) < ipBatch && len(rxBufs) > 0 {
			buf := rxBufs[0]
			rxBufs = rxBufs[1:]
			if err := fillFrame(buf); err != nil && stepErr == nil {
				stepErr = err
			}
			r := msg.Req{Op: msg.OpRxPacket}
			r.SetChain([]shm.RichPtr{buf.Slice(0, uint32(frameLen))})
			r.Arg[0], r.Arg[1] = uint64(frameLen), msg.FlagCsumOK
			batch = append(batch, r)
		}
		segs := 0
		var dones []msg.Req
		sw.time(func() {
			e.FromDriverBatch("eth0", batch, now)
			verdicts()
			dones = e.DrainToTCP()
			n := 0
			for _, d := range dones {
				if d.Op == msg.OpIPDeliver {
					segs += max(int(d.Arg[3]), 1)
					dones[n] = msg.Req{ID: d.ID, Op: msg.OpIPDeliverDone}
					n++
				}
			}
			dones = dones[:n]
		})
		if segs != len(batch) && stepErr == nil {
			stepErr = fmt.Errorf("receive: %d of %d segments delivered", segs, len(batch))
		}
		before := len(rxBufs)
		supply.time(func() {
			e.FromTransportBatch(netpkt.ProtoTCP, dones, now)
			takeSupply()
		})
		supplied += len(rxBufs) - before
		return len(batch)
	})
	if stepErr != nil {
		return stepErr
	}
	b.rep.add("ipeng.rx_ns_per_pkt", float64(sw.total+supply.total)/float64(rx.units), "ns")
	b.rep.add("ipeng.supply_ns_per_buf", float64(supply.total)/float64(max(supplied, 1)), "ns")
	b.rep.add("ipeng.allocs_per_pkt", (tx.allocs+rx.allocs)/2, "count")
	return nil
}
