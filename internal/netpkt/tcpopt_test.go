package netpkt

import (
	"bytes"
	"testing"
)

// TestSACKAckGoldenBytes pins the wire format of the segment loss recovery
// depends on: a pure ACK with three SACK blocks (RFC 2018), NOP-padded.
func TestSACKAckGoldenBytes(t *testing.T) {
	h := TCPHeader{
		SrcPort: 9000, DstPort: 40000, Seq: 0x01020304, Ack: 0x0a0b0c0d,
		Flags: TCPAck, Window: 0xfffe, NSACK: 3,
		SACK: [MaxSACKBlocks]SACKBlock{{0x10000000, 0x10000800}, {0x20000000, 0x200005b4}, {0xfffffff0, 0x00000010}},
	}
	want := []byte{
		0x23, 0x28, 0x9c, 0x40, // ports
		0x01, 0x02, 0x03, 0x04, // seq
		0x0a, 0x0b, 0x0c, 0x0d, // ack
		0xc0, 0x10, 0xff, 0xfe, // data offset 12 words, ACK, window
		0x00, 0x00, 0x00, 0x00, // checksum, urgent
		0x01, 0x01, 0x05, 0x1a, // NOP NOP SACK len 26
		0x10, 0x00, 0x00, 0x00, 0x10, 0x00, 0x08, 0x00,
		0x20, 0x00, 0x00, 0x00, 0x20, 0x00, 0x05, 0xb4,
		0xff, 0xff, 0xff, 0xf0, 0x00, 0x00, 0x00, 0x10, // a block across the sequence wrap
	}
	if h.MarshalLen() != len(want) {
		t.Fatalf("MarshalLen = %d, want %d", h.MarshalLen(), len(want))
	}
	got := make([]byte, h.MarshalLen())
	h.Marshal(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("marshalled\n% x\nwant\n% x", got, want)
	}
	back, err := ParseTCP(want)
	if err != nil {
		t.Fatal(err)
	}
	h.DataOff = len(want)
	if back != h {
		t.Fatalf("parsed %+v, want %+v", back, h)
	}
}

// TestSYNOptions: MSS and SACK-permitted together, as every SYN carries them.
func TestSYNOptions(t *testing.T) {
	h := TCPHeader{SrcPort: 1, DstPort: 2, Seq: 7, Flags: TCPSyn, Window: 65535, MSS: 1460, SACKPermitted: true}
	b := make([]byte, h.MarshalLen())
	h.Marshal(b)
	if want := []byte{2, 4, 0x05, 0xb4, 1, 1, 4, 2}; !bytes.Equal(b[TCPHeaderLen:], want) {
		t.Fatalf("options % x, want % x", b[TCPHeaderLen:], want)
	}
	back, err := ParseTCP(b)
	if h.DataOff = 28; err != nil || back != h {
		t.Fatalf("parsed %+v (%v), want %+v", back, err, h)
	}
}

// TestSACKOptionEdges: more blocks than the header keeps are dropped, not
// fatal; a SACK option that is not a whole number of blocks is malformed.
func TestSACKOptionEdges(t *testing.T) {
	seg := make([]byte, 56)
	(&TCPHeader{Flags: TCPAck}).Marshal(seg)
	seg[12] = 14 << 4
	seg[20], seg[21] = optSACK, 2+8*4
	for i := 0; i < 4; i++ {
		seg[22+8*i+3], seg[22+8*i+7] = byte(10*i+1), byte(10*i+5)
	}
	h, err := ParseTCP(seg)
	if err != nil || h.NSACK != MaxSACKBlocks || h.SACK[2] != (SACKBlock{21, 25}) {
		t.Fatalf("four blocks: %+v, %v", h, err)
	}
	seg[21] = 2 + 8*4 - 3
	if _, err := ParseTCP(seg); err == nil {
		t.Fatal("a SACK option of 31 bytes was accepted")
	}
}

// FuzzParseTCP walks arbitrary option bytes: no panic, nothing read past the
// data offset, and whatever parses survives a Marshal / ParseTCP round trip
// field for field (only the header length may differ: unknown options are
// not regenerated, and padding is this stack's own).
func FuzzParseTCP(f *testing.F) {
	for _, h := range []TCPHeader{
		{SrcPort: 1, DstPort: 2, Flags: TCPSyn, MSS: 1460, SACKPermitted: true},
		{SrcPort: 1, DstPort: 2, Flags: TCPAck, NSACK: 1, SACK: [MaxSACKBlocks]SACKBlock{{1, 2}}},
		{SrcPort: 1, DstPort: 2, Flags: TCPAck, NSACK: 3, SACK: [MaxSACKBlocks]SACKBlock{{1, 2}, {5, 9}, {100, 200}}},
		{SrcPort: 1, DstPort: 2, Flags: TCPAck | TCPPsh},
	} {
		b := make([]byte, h.MarshalLen(), h.MarshalLen()+8)
		h.Marshal(b)
		f.Add(append(b, "payload!"...))
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		h, err := ParseTCP(seg)
		if err != nil {
			return
		}
		if h.DataOff < TCPHeaderLen || h.DataOff > len(seg) || h.NSACK < 0 || h.NSACK > MaxSACKBlocks {
			t.Fatalf("parsed %+v from %d bytes", h, len(seg))
		}
		// The options end at the data offset: what follows must not matter.
		if again, err := ParseTCP(seg[:h.DataOff]); err != nil || again != h {
			t.Fatalf("header alone parses as %+v (%v), with payload as %+v", again, err, h)
		}
		out := make([]byte, h.MarshalLen())
		h.Marshal(out)
		back, err := ParseTCP(out)
		if err != nil {
			t.Fatalf("re-marshalled header does not parse: %v", err)
		}
		if back.DataOff != len(out) {
			t.Fatalf("re-marshalled header is %d bytes, data offset %d", len(out), back.DataOff)
		}
		if back.DataOff = h.DataOff; back != h {
			t.Fatalf("round trip: %+v became %+v", h, back)
		}
	})
}
