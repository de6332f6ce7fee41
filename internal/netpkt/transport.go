package netpkt

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the UDP header length.
const UDPHeaderLen = 8

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // header + payload
	Checksum uint16
}

// Marshal writes the header into b (>= UDPHeaderLen), leaving the checksum
// field as given (zero when offloaded or unused).
func (h *UDPHeader) Marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
}

// ParseUDP reads a UDP header from b.
func ParseUDP(b []byte) (UDPHeader, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, fmt.Errorf("%w: udp needs %d bytes, have %d", ErrTruncated, UDPHeaderLen, len(b))
	}
	return UDPHeader{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}, nil
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCPHeaderLen is the option-less TCP header length.
const TCPHeaderLen = 20

// MaxSACKBlocks is how many SACK blocks a header carries. Three is what
// fits beside a timestamp option in a real stack's 40 option bytes; this one
// has no timestamps but keeps the customary count.
const MaxSACKBlocks = 3

// TCP option kinds this stack generates and understands.
const (
	optEnd           = 0
	optNOP           = 1
	optMSS           = 2
	optSACKPermitted = 4
	optSACK          = 5
)

// SACKBlock is one selectively acknowledged range [Start, End) (RFC 2018).
type SACKBlock struct{ Start, End uint32 }

// TCPHeader is a TCP header. The options generated are MSS and
// SACK-permitted (SYN family) and SACK blocks (pure ACKs); unknown options
// are skipped on parse. The SACK blocks are a fixed array so that parsing
// and marshalling a header never allocate.
type TCPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	// MSS is the maximum-segment-size option; zero means absent.
	MSS uint16
	// SACKPermitted is the SACK-permitted option (meaningful on SYNs).
	SACKPermitted bool
	// SACK[:NSACK] are the SACK blocks, in wire order.
	NSACK int
	SACK  [MaxSACKBlocks]SACKBlock
	// DataOff is the parsed header length in bytes.
	DataOff int
}

// MarshalLen returns the marshalled header length for this header. Options
// are NOP-padded to a multiple of four: MSS is 4 bytes, SACK-permitted
// 2 + 2 NOPs, n SACK blocks 2 NOPs + 2 + 8n.
func (h *TCPHeader) MarshalLen() int {
	n := TCPHeaderLen
	if h.MSS != 0 {
		n += 4
	}
	if h.SACKPermitted {
		n += 4
	}
	if h.NSACK > 0 {
		n += 4 + 8*h.NSACK
	}
	return n
}

// Marshal writes the header into b (>= MarshalLen()), leaving Checksum as
// given (the pseudo-sum when offloaded).
func (h *TCPHeader) Marshal(b []byte) {
	n := h.MarshalLen()
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = uint8(n/4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	b[18], b[19] = 0, 0 // urgent pointer unused
	o := b[TCPHeaderLen:n]
	if h.MSS != 0 {
		o[0], o[1] = optMSS, 4
		binary.BigEndian.PutUint16(o[2:4], h.MSS)
		o = o[4:]
	}
	if h.SACKPermitted {
		o[0], o[1], o[2], o[3] = optNOP, optNOP, optSACKPermitted, 2
		o = o[4:]
	}
	if h.NSACK > 0 {
		o[0], o[1], o[2], o[3] = optNOP, optNOP, optSACK, uint8(2+8*h.NSACK)
		o = o[4:]
		for _, blk := range h.SACK[:h.NSACK] {
			binary.BigEndian.PutUint32(o[0:4], blk.Start)
			binary.BigEndian.PutUint32(o[4:8], blk.End)
			o = o[8:]
		}
	}
}

// ParseTCP reads a TCP header and the options this stack understands (MSS,
// SACK-permitted, SACK blocks) from b. SACK blocks beyond MaxSACKBlocks are
// ignored; a SACK option whose length is not 2 + 8n is malformed.
func ParseTCP(b []byte) (TCPHeader, error) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, fmt.Errorf("%w: tcp needs %d bytes, have %d", ErrTruncated, TCPHeaderLen, len(b))
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return TCPHeader{}, fmt.Errorf("%w: tcp data offset %d", ErrBadLength, off)
	}
	h := TCPHeader{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Seq:      binary.BigEndian.Uint32(b[4:8]),
		Ack:      binary.BigEndian.Uint32(b[8:12]),
		Flags:    b[13] & 0x1f,
		Window:   binary.BigEndian.Uint16(b[14:16]),
		Checksum: binary.BigEndian.Uint16(b[16:18]),
		DataOff:  off,
	}
	opts := b[TCPHeaderLen:off]
	for len(opts) > 0 {
		switch opts[0] {
		case optEnd:
			opts = nil
		case optNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return TCPHeader{}, fmt.Errorf("%w: malformed tcp option", ErrBadLength)
			}
			body := opts[2:opts[1]]
			switch {
			case opts[0] == optMSS && len(body) == 2:
				h.MSS = binary.BigEndian.Uint16(body)
			case opts[0] == optSACKPermitted && len(body) == 0:
				h.SACKPermitted = true
			case opts[0] == optSACK:
				if len(body)%8 != 0 {
					return TCPHeader{}, fmt.Errorf("%w: tcp sack option of %d bytes", ErrBadLength, opts[1])
				}
				for ; len(body) > 0 && h.NSACK < MaxSACKBlocks; body = body[8:] {
					h.SACK[h.NSACK] = SACKBlock{
						Start: binary.BigEndian.Uint32(body[0:4]),
						End:   binary.BigEndian.Uint32(body[4:8]),
					}
					h.NSACK++
				}
			}
			opts = opts[opts[1]:]
		}
	}
	return h, nil
}

// SeqLT reports whether sequence number a is before b, in modular
// 32-bit sequence space (RFC 793 comparison).
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
