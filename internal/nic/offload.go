package nic

import (
	"encoding/binary"
	"errors"
	"fmt"

	"newtos/internal/netpkt"
)

// fillChecksums performs TX checksum offload on a linearized Ethernet
// frame: the IPv4 header checksum and/or the TCP/UDP checksum (over the
// pseudo header) are computed in hardware, so software never touches the
// payload bytes.
func fillChecksums(frame []byte, flags uint32) {
	if len(frame) < netpkt.EthHeaderLen+netpkt.IPv4HeaderLen {
		return
	}
	eth, err := netpkt.ParseEth(frame)
	if err != nil || eth.Type != netpkt.EtherTypeIPv4 {
		return
	}
	ip := frame[netpkt.EthHeaderLen:]
	hdr, err := netpkt.ParseIPv4(ip, false)
	if err != nil {
		return
	}
	if flags&TxCsumIP != 0 {
		binary.BigEndian.PutUint16(ip[10:12], 0)
		binary.BigEndian.PutUint16(ip[10:12], netpkt.Checksum(ip[:hdr.HeaderLen]))
	}
	if flags&TxCsumL4 == 0 {
		return
	}
	seg := ip[hdr.HeaderLen:]
	if int(hdr.TotalLen) >= hdr.HeaderLen && int(hdr.TotalLen)-hdr.HeaderLen <= len(seg) {
		seg = seg[:int(hdr.TotalLen)-hdr.HeaderLen]
	}
	switch hdr.Proto {
	case netpkt.ProtoTCP:
		if len(seg) < netpkt.TCPHeaderLen {
			return
		}
		binary.BigEndian.PutUint16(seg[16:18], 0)
		binary.BigEndian.PutUint16(seg[16:18],
			netpkt.TransportChecksum(hdr.Src, hdr.Dst, netpkt.ProtoTCP, seg))
	case netpkt.ProtoUDP:
		if len(seg) < netpkt.UDPHeaderLen {
			return
		}
		binary.BigEndian.PutUint16(seg[6:8], 0)
		binary.BigEndian.PutUint16(seg[6:8],
			netpkt.TransportChecksum(hdr.Src, hdr.Dst, netpkt.ProtoUDP, seg))
	}
}

// verifyChecksums performs RX checksum offload: validates the IPv4 header
// checksum and, for TCP/UDP, the transport checksum.
func verifyChecksums(frame []byte) bool {
	eth, err := netpkt.ParseEth(frame)
	if err != nil {
		return false
	}
	if eth.Type != netpkt.EtherTypeIPv4 {
		return true // nothing to verify (e.g. ARP)
	}
	ip := frame[netpkt.EthHeaderLen:]
	hdr, err := netpkt.ParseIPv4(ip, true)
	if err != nil {
		return false
	}
	seg := ip[hdr.HeaderLen:]
	if int(hdr.TotalLen)-hdr.HeaderLen <= len(seg) {
		seg = seg[:int(hdr.TotalLen)-hdr.HeaderLen]
	}
	switch hdr.Proto {
	case netpkt.ProtoTCP:
		return netpkt.VerifyTransportChecksum(hdr.Src, hdr.Dst, netpkt.ProtoTCP, seg)
	case netpkt.ProtoUDP:
		uh, err := netpkt.ParseUDP(seg)
		if err != nil {
			return false
		}
		if uh.Checksum == 0 {
			return true // UDP checksum optional
		}
		return netpkt.VerifyTransportChecksum(hdr.Src, hdr.Dst, netpkt.ProtoUDP, seg)
	}
	return true
}

// tsoMaxHdr bounds the linearized header prefix a TSO descriptor needs:
// Ethernet (14) plus maximal IPv4 (60) plus maximal TCP (60).
const tsoMaxHdr = netpkt.EthHeaderLen + 60 + 60

// tsoSplitChain implements TCP segmentation offload directly on a
// scatter/gather chain: one oversized packet (Ethernet + IPv4 + TCP header
// chunk followed by payload chunks) becomes many MTU-sized frames with
// advancing sequence numbers, incrementing IP IDs, FIN/PSH moved to the
// last segment, and all checksums recomputed in hardware. This is the
// offload that lets the stack "remove a great amount of the communication"
// (Table II rows 5-6): one channel request now carries seg*mss bytes.
//
// Working on the chain matters for the gather-DMA model: the 64 KB burst is
// never copied into one flat staging buffer first — the header template is
// read once and each output frame gathers only its own payload span, so
// every payload byte is touched exactly once on the TX path. A payload that
// fits one MSS comes back as the one frame it is, its checksums not filled.
func tsoSplitChain(pkt netpkt.Packet, mss int) ([][]byte, error) {
	if mss <= 0 {
		return nil, errors.New("nic: tso with zero mss")
	}
	total := pkt.Len()
	headLen := total
	if headLen > tsoMaxHdr {
		headLen = tsoMaxHdr
	}
	head := make([]byte, headLen)
	pkt.CopyTo(head)

	eth, err := netpkt.ParseEth(head)
	if err != nil {
		return nil, err
	}
	if eth.Type != netpkt.EtherTypeIPv4 {
		return nil, errors.New("nic: tso on non-IPv4 frame")
	}
	ipb := head[netpkt.EthHeaderLen:]
	ip, err := netpkt.ParseIPv4(ipb, false)
	if err != nil {
		return nil, err
	}
	if ip.Proto != netpkt.ProtoTCP {
		return nil, errors.New("nic: tso on non-TCP packet")
	}
	tcpb := ipb[ip.HeaderLen:]
	tcp, err := netpkt.ParseTCP(tcpb)
	if err != nil {
		return nil, err
	}
	hdrLen := netpkt.EthHeaderLen + ip.HeaderLen + tcp.DataOff
	if hdrLen > len(head) {
		return nil, errors.New("nic: tso header exceeds frame")
	}
	payLen := total - hdrLen
	if want := int(ip.TotalLen) - ip.HeaderLen - tcp.DataOff; want >= 0 && want < payLen {
		payLen = want
	}
	if payLen <= mss {
		return [][]byte{pkt.Bytes()}, nil
	}

	// Cursor over the chain, positioned at the start of the payload.
	ci, co := 0, 0
	for skip := hdrLen; skip > 0; {
		c := pkt.Chunks[ci].Data
		if n := len(c) - co; n <= skip {
			skip -= n
			ci++
			co = 0
		} else {
			co += skip
			skip = 0
		}
	}

	var out [][]byte
	for off := 0; off < payLen; off += mss {
		n := payLen - off
		last := true
		if n > mss {
			n = mss
			last = false
		}
		seg := make([]byte, hdrLen+n)
		copy(seg, head[:hdrLen])
		// Gather this segment's payload span from the chain.
		for w := hdrLen; w < len(seg); {
			c := pkt.Chunks[ci].Data
			m := copy(seg[w:], c[co:])
			w += m
			co += m
			if co >= len(c) {
				ci++
				co = 0
			}
		}

		sipb := seg[netpkt.EthHeaderLen:]
		stcp := sipb[ip.HeaderLen:]
		// IP: new total length, incremented ID, fresh checksum.
		binary.BigEndian.PutUint16(sipb[2:4], uint16(ip.HeaderLen+tcp.DataOff+n))
		binary.BigEndian.PutUint16(sipb[4:6], ip.ID+uint16(off/mss))
		binary.BigEndian.PutUint16(sipb[10:12], 0)
		binary.BigEndian.PutUint16(sipb[10:12], netpkt.Checksum(sipb[:ip.HeaderLen]))
		// TCP: advanced sequence; FIN/PSH only on the last segment.
		binary.BigEndian.PutUint32(stcp[4:8], tcp.Seq+uint32(off))
		flags := tcp.Flags
		if !last {
			flags &^= netpkt.TCPFin | netpkt.TCPPsh
		}
		stcp[13] = flags
		// TCP checksum over the segment.
		binary.BigEndian.PutUint16(stcp[16:18], 0)
		l4 := stcp[:tcp.DataOff+n]
		binary.BigEndian.PutUint16(stcp[16:18],
			netpkt.TransportChecksum(ip.Src, ip.Dst, netpkt.ProtoTCP, l4))
		out = append(out, seg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("nic: tso produced no segments (payload %d, mss %d)", payLen, mss)
	}
	return out, nil
}
