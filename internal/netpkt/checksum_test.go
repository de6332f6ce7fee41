package netpkt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// sum16Ref is the checksum loop Sum16 replaced, one 16-bit word per
// iteration: the reference Sum16 must agree with for every input and every
// incoming sum.
func sum16Ref(b []byte, acc uint32) uint32 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if n%2 == 1 {
		acc += uint32(b[n-1]) << 8
	}
	return acc
}

// FuzzSum16 holds Sum16 to the reference loop: the same partial sum (and so
// the same Fold16) for any bytes and any incoming sum, and the same result
// when the bytes are summed in two calls split at an even offset.
func FuzzSum16(f *testing.F) {
	seq := make([]byte, 31)
	for i := range seq {
		seq[i] = byte(7*i + 1)
	}
	for _, n := range []int{0, 1, 3, 31} {
		f.Add(seq[:n], uint32(0))
	}
	// All ones, longer than the largest IP packet: every lane and the
	// 32-bit sum carry.
	f.Add(bytes.Repeat([]byte{0xff}, 64<<10+54), uint32(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64<<10+54), ^uint32(0))
	// A chained call: the payload after an even-length header, the header's
	// sum coming in as acc, as the TCP and UDP engines call it.
	hdr := make([]byte, UDPHeaderLen)
	(&UDPHeader{SrcPort: 5000, DstPort: 6000, Length: UDPHeaderLen + 31}).Marshal(hdr)
	f.Add(seq, Sum16(hdr, PseudoSum(IPAddr{10, 0, 0, 1}, IPAddr{10, 0, 0, 2}, ProtoUDP, UDPHeaderLen+31)))
	f.Fuzz(func(t *testing.T, b []byte, acc uint32) {
		want := sum16Ref(b, acc)
		if got := Sum16(b, acc); got != want {
			t.Fatalf("Sum16(%d bytes, %#x) = %#x, reference %#x (Fold16 %#04x, reference %#04x)",
				len(b), acc, got, want, Fold16(got), Fold16(want))
		}
		cut := len(b) / 2 &^ 1
		if got := Sum16(b[cut:], Sum16(b[:cut], acc)); got != want {
			t.Fatalf("split at %d of %d bytes: %#x, whole %#x", cut, len(b), got, want)
		}
	})
}
