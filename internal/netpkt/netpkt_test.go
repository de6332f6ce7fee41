package netpkt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"newtos/internal/shm"
)

func TestParseIPString(t *testing.T) {
	a, err := ParseIP("192.168.1.10")
	if err != nil {
		t.Fatal(err)
	}
	if a != (IPAddr{192, 168, 1, 10}) {
		t.Fatalf("a = %v", a)
	}
	if a.String() != "192.168.1.10" {
		t.Fatalf("String = %q", a.String())
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "-1.0.0.0"} {
		if _, err := ParseIP(bad); err == nil {
			t.Errorf("ParseIP(%q) succeeded", bad)
		}
	}
}

func TestIPU32RoundTrip(t *testing.T) {
	prop := func(v uint32) bool { return IPFromU32(v).U32() == v }
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInSubnet(t *testing.T) {
	a := MustIP("10.0.1.5")
	tests := []struct {
		b    string
		bits int
		want bool
	}{
		{"10.0.1.200", 24, true},
		{"10.0.2.5", 24, false},
		{"10.0.2.5", 16, true},
		{"11.0.1.5", 8, false},
		{"99.99.99.99", 0, true},
		{"10.0.1.5", 32, true},
		{"10.0.1.4", 32, false},
	}
	for _, tt := range tests {
		if got := a.InSubnet(MustIP(tt.b), tt.bits); got != tt.want {
			t.Errorf("InSubnet(%s,/%d) = %v, want %v", tt.b, tt.bits, got, tt.want)
		}
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, csum ^0xddf2.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Fatal("odd-length padding wrong")
	}
}

// Property: a marshalled IPv4 header with its checksum filled verifies to
// zero, and appending the checksum-validating parse recovers all fields.
func TestQuickIPv4RoundTrip(t *testing.T) {
	prop := func(tos uint8, id uint16, ttl uint8, proto uint8, src, dst uint32, payloadLen uint16) bool {
		h := IPv4Header{
			TOS: tos, TotalLen: IPv4HeaderLen + payloadLen%1480, ID: id,
			Flags: IPFlagDF, TTL: ttl, Proto: proto,
			Src: IPFromU32(src), Dst: IPFromU32(dst),
		}
		var b [IPv4HeaderLen]byte
		h.Marshal(b[:], true)
		got, err := ParseIPv4(b[:], true)
		if err != nil {
			return false
		}
		return got.TOS == h.TOS && got.TotalLen == h.TotalLen && got.ID == h.ID &&
			got.TTL == h.TTL && got.Proto == h.Proto && got.Src == h.Src && got.Dst == h.Dst &&
			got.HeaderLen == IPv4HeaderLen
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4RejectsCorruption(t *testing.T) {
	h := IPv4Header{TotalLen: 40, TTL: 64, Proto: ProtoTCP, Src: MustIP("1.2.3.4"), Dst: MustIP("5.6.7.8")}
	var b [IPv4HeaderLen]byte
	h.Marshal(b[:], true)
	b[8] ^= 0xff // flip TTL
	if _, err := ParseIPv4(b[:], true); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupted parse: %v", err)
	}
	b[0] = 0x65 // version 6
	if _, err := ParseIPv4(b[:], true); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version parse: %v", err)
	}
	if _, err := ParseIPv4(b[:5], true); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short parse: %v", err)
	}
}

func TestIPv4OffloadLeavesChecksumZero(t *testing.T) {
	h := IPv4Header{TotalLen: 20, TTL: 1, Proto: ProtoUDP}
	var b [IPv4HeaderLen]byte
	h.Marshal(b[:], false)
	if b[10] != 0 || b[11] != 0 {
		t.Fatal("offload marshal filled checksum")
	}
	// Device-side fill:
	got, err := ParseIPv4(b[:], false)
	if err != nil || got.Checksum != 0 {
		t.Fatalf("parse without verify: %+v %v", got, err)
	}
}

func TestEthRoundTrip(t *testing.T) {
	h := EthHeader{Dst: Broadcast, Src: MAC{1, 2, 3, 4, 5, 6}, Type: EtherTypeARP}
	var b [EthHeaderLen]byte
	h.Marshal(b[:])
	got, err := ParseEth(b[:])
	if err != nil || got != h {
		t.Fatalf("eth round trip: %+v %v", got, err)
	}
	if _, err := ParseEth(b[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatal("short eth accepted")
	}
	if (MAC{1, 2, 3, 4, 5, 6}).String() != "01:02:03:04:05:06" {
		t.Fatal("MAC string format")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARPPacket{
		Op: ARPRequest, SenderMAC: MAC{1, 1, 1, 1, 1, 1}, SenderIP: MustIP("10.0.0.1"),
		TargetMAC: MAC{}, TargetIP: MustIP("10.0.0.2"),
	}
	var b [ARPLen]byte
	a.Marshal(b[:])
	got, err := ParseARP(b[:])
	if err != nil || got != a {
		t.Fatalf("arp round trip: %+v %v", got, err)
	}
	b[4] = 8 // bad hw len
	if _, err := ParseARP(b[:]); err == nil {
		t.Fatal("bad arp accepted")
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	payload := []byte("ping payload")
	b := make([]byte, ICMPHeaderLen+len(payload))
	copy(b[ICMPHeaderLen:], payload)
	e := ICMPEcho{Type: ICMPEchoRequest, ID: 0x1234, Seq: 7}
	e.Marshal(b, len(payload))
	got, err := ParseICMPEcho(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != e.Type || got.ID != e.ID || got.Seq != e.Seq {
		t.Fatalf("icmp = %+v", got)
	}
	b[ICMPHeaderLen] ^= 0xff
	if _, err := ParseICMPEcho(b); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt icmp: %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 5353, DstPort: 53, Length: 30, Checksum: 0xbeef}
	var b [UDPHeaderLen]byte
	h.Marshal(b[:])
	got, err := ParseUDP(b[:])
	if err != nil || got != h {
		t.Fatalf("udp round trip: %+v %v", got, err)
	}
}

func TestTCPRoundTripWithMSS(t *testing.T) {
	h := TCPHeader{
		SrcPort: 43210, DstPort: 80, Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 65535, MSS: 1460,
	}
	b := make([]byte, h.MarshalLen())
	if len(b) != 24 {
		t.Fatalf("marshal len = %d", len(b))
	}
	h.Marshal(b)
	got, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != h.SrcPort || got.Seq != h.Seq || got.Ack != h.Ack ||
		got.Flags != h.Flags || got.Window != h.Window || got.MSS != 1460 || got.DataOff != 24 {
		t.Fatalf("tcp = %+v", got)
	}
}

func TestTCPNoOptions(t *testing.T) {
	h := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPAck}
	b := make([]byte, h.MarshalLen())
	h.Marshal(b)
	got, err := ParseTCP(b)
	if err != nil || got.MSS != 0 || got.DataOff != TCPHeaderLen {
		t.Fatalf("tcp = %+v, %v", got, err)
	}
}

func TestTCPSkipsUnknownOptions(t *testing.T) {
	// Header with NOP, NOP, unknown kind 8 (timestamps, len 10), MSS.
	b := make([]byte, 36)
	h := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPSyn}
	h.Marshal(b[:20])
	b[12] = uint8(36/4) << 4
	opts := b[20:]
	opts[0], opts[1] = 1, 1 // NOP NOP
	opts[2], opts[3] = 8, 10
	// bytes 4..11 timestamp junk
	opts[12], opts[13] = 2, 4
	opts[14], opts[15] = 0x05, 0xb4 // MSS 1460
	got, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.MSS != 1460 {
		t.Fatalf("MSS = %d", got.MSS)
	}
}

func TestTCPMalformedOption(t *testing.T) {
	b := make([]byte, 24)
	h := TCPHeader{Flags: TCPSyn}
	h.Marshal(b[:20])
	b[12] = uint8(24/4) << 4
	b[20], b[21] = 5, 99 // option longer than remaining space
	if _, err := ParseTCP(b); err == nil {
		t.Fatal("malformed option accepted")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !SeqLT(1, 2) || SeqLT(2, 1) {
		t.Fatal("basic SeqLT")
	}
	// Wraparound: 0xffffffff is before 1.
	if !SeqLT(0xffffffff, 1) {
		t.Fatal("wraparound SeqLT")
	}
	if !SeqBetween(0, 0xfffffff0, 0x10) {
		t.Fatal("wraparound SeqBetween")
	}
	if SeqBetween(0x20, 0xfffffff0, 0x10) {
		t.Fatal("SeqBetween false positive")
	}
	if !SeqLEQ(5, 5) {
		t.Fatal("SeqLEQ equality")
	}
}

// Property: sequence comparison is a strict total order on windows < 2^31.
func TestQuickSeqOrder(t *testing.T) {
	prop := func(base uint32, d1, d2 uint16) bool {
		a, b := base+uint32(d1), base+uint32(d2)
		switch {
		case d1 < d2:
			return SeqLT(a, b)
		case d1 > d2:
			return SeqLT(b, a)
		default:
			return !SeqLT(a, b) && !SeqLT(b, a)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTransportChecksum(t *testing.T) {
	src, dst := MustIP("10.0.0.1"), MustIP("10.0.0.2")
	seg := make([]byte, UDPHeaderLen+5)
	h := UDPHeader{SrcPort: 1000, DstPort: 2000, Length: uint16(len(seg))}
	h.Marshal(seg)
	copy(seg[UDPHeaderLen:], "hello")
	csum := TransportChecksum(src, dst, ProtoUDP, seg)
	h.Checksum = csum
	h.Marshal(seg)
	copy(seg[UDPHeaderLen:], "hello")
	if !VerifyTransportChecksum(src, dst, ProtoUDP, seg) {
		t.Fatal("verify failed")
	}
	seg[9] ^= 1
	if VerifyTransportChecksum(src, dst, ProtoUDP, seg) {
		t.Fatal("corruption not detected")
	}
}

// Property: Sum16 is associative across arbitrary splits — the foundation
// of partial checksums for offload (device continues where software left
// off).
func TestQuickChecksumSplit(t *testing.T) {
	prop := func(data []byte, splitAt uint8) bool {
		if len(data)%2 != 0 {
			data = append(data, 0)
		}
		cut := int(splitAt) % (len(data) + 1)
		if cut%2 == 1 {
			cut--
		}
		whole := Fold16(Sum16(data, 0))
		split := Fold16(Sum16(data[cut:], Sum16(data[:cut], 0)))
		return whole == split
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketChain(t *testing.T) {
	space := shm.NewSpace()
	pool, _ := space.NewPool("t", 64, 4)
	var p Packet
	want := []byte{}
	for i := 0; i < 3; i++ {
		ptr, buf, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf[:10] {
			buf[j] = byte(i*16 + j)
		}
		p.Append(Chunk{Ptr: ptr.Slice(0, 10), Data: buf[:10]})
		want = append(want, buf[:10]...)
	}
	if p.Len() != 30 {
		t.Fatalf("len = %d", p.Len())
	}
	if !bytes.Equal(p.Bytes(), want) {
		t.Fatal("linearized bytes wrong")
	}
	// Resolve from pointers round-trips.
	got, err := Resolve(space, p.Ptrs())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("resolved bytes wrong")
	}
	// Prepend puts a chunk in front.
	hdr := Chunk{Data: []byte{0xaa, 0xbb}}
	p.Prepend(hdr)
	if p.Bytes()[0] != 0xaa || p.Len() != 32 {
		t.Fatal("prepend wrong")
	}
	// CopyTo truncates at dst.
	var small [7]byte
	if n := p.CopyTo(small[:]); n != 7 {
		t.Fatalf("CopyTo = %d", n)
	}
}

// TestResolveStaleChain: a chain into a pool dropped from the space fails
// to resolve instead of reading freed memory.
func TestResolveStaleChain(t *testing.T) {
	space := shm.NewSpace()
	pool, _ := space.NewPool("t", 64, 1)
	ptr, _, _ := pool.Alloc()
	space.Drop(pool.ID())
	if _, err := Resolve(space, []shm.RichPtr{ptr}); !errors.Is(err, shm.ErrNoSuchPool) {
		t.Fatalf("stale resolve: %v", err)
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	buf := make([]byte, 1500)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

func BenchmarkTCPMarshalParse(b *testing.B) {
	h := TCPHeader{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: TCPAck, Window: 5, MSS: 1460}
	buf := make([]byte, h.MarshalLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Marshal(buf)
		if _, err := ParseTCP(buf); err != nil {
			b.Fatal(err)
		}
	}
}
