package netpkt

import (
	"testing"
)

// The parsers below read whatever arrives on the wire. Each fuzz target
// holds two rules, like FuzzParseTCP: no input may panic, and whatever
// parses survives Marshal and parses again field for field.

func FuzzParseEth(f *testing.F) {
	h := EthHeader{Dst: Broadcast, Src: MAC{2, 0, 0, 0, 0, 1}, Type: EtherTypeARP}
	b := make([]byte, EthHeaderLen, EthHeaderLen+4)
	h.Marshal(b)
	f.Add(append(b, 1, 2, 3, 4))
	f.Add(b[:EthHeaderLen-1])
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseEth(b)
		if err != nil {
			return
		}
		out := make([]byte, EthHeaderLen)
		h.Marshal(out)
		if back, err := ParseEth(out); err != nil || back != h {
			t.Fatalf("round trip: %+v became %+v (%v)", h, back, err)
		}
	})
}

func FuzzParseARP(f *testing.F) {
	for _, a := range []ARPPacket{
		{Op: ARPRequest, SenderMAC: MAC{2, 0, 0, 0, 0, 1}, SenderIP: IPAddr{10, 0, 0, 1}, TargetIP: IPAddr{10, 0, 0, 2}},
		{Op: ARPReply, SenderMAC: MAC{2, 0, 0, 0, 0, 2}, SenderIP: IPAddr{10, 0, 0, 2}, TargetMAC: MAC{2, 0, 0, 0, 0, 1}, TargetIP: IPAddr{10, 0, 0, 1}},
	} {
		b := make([]byte, ARPLen)
		a.Marshal(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := ParseARP(b)
		if err != nil {
			return
		}
		out := make([]byte, ARPLen)
		a.Marshal(out)
		if back, err := ParseARP(out); err != nil || back != a {
			t.Fatalf("round trip: %+v became %+v (%v)", a, back, err)
		}
	})
}

// FuzzParseIPv4: the header length may differ after the round trip, because
// options are accepted but never generated. The checksum field is carried
// over as parsed; when the parser verified it over an option-less header,
// Marshal must compute the same value.
func FuzzParseIPv4(f *testing.F) {
	h := IPv4Header{TotalLen: 48, ID: 7, Flags: IPFlagDF, TTL: DefaultTTL, Proto: 6, Src: IPAddr{10, 0, 0, 1}, Dst: IPAddr{10, 0, 0, 2}}
	b := make([]byte, 48)
	h.Marshal(b, true)
	f.Add(b, true)
	f.Add(b, false)
	opts := append([]byte{0x46}, b[1:IPv4HeaderLen]...) // IHL 6: one word of options
	opts = append(opts, 1, 1, 1, 0)
	f.Add(opts, false)
	f.Fuzz(func(t *testing.T, b []byte, verify bool) {
		h, err := ParseIPv4(b, verify)
		if err != nil {
			return
		}
		if h.HeaderLen < IPv4HeaderLen || h.HeaderLen > len(b) || int(h.TotalLen) < h.HeaderLen {
			t.Fatalf("parsed %+v from %d bytes", h, len(b))
		}
		out := make([]byte, IPv4HeaderLen)
		h.Marshal(out, false)
		out[10], out[11] = byte(h.Checksum>>8), byte(h.Checksum)
		back, err := ParseIPv4(out, false)
		if err != nil {
			t.Fatalf("re-marshalled header does not parse: %v", err)
		}
		if back.HeaderLen != IPv4HeaderLen {
			t.Fatalf("re-marshalled header is %d bytes long", back.HeaderLen)
		}
		if back.HeaderLen = h.HeaderLen; back != h {
			t.Fatalf("round trip: %+v became %+v", h, back)
		}
		if verify && h.HeaderLen == IPv4HeaderLen {
			h.Marshal(out, true)
			if back, err := ParseIPv4(out, true); err != nil || back.Checksum != h.Checksum {
				t.Fatalf("checksum %#04x verified, Marshal computes %#04x (%v)", h.Checksum, back.Checksum, err)
			}
		}
	})
}

// FuzzParseICMPEcho: Marshal recomputes the checksum over the same message,
// so the fields come back whichever of the two zero checksums was sent.
func FuzzParseICMPEcho(f *testing.F) {
	b := make([]byte, ICMPHeaderLen+5)
	copy(b[ICMPHeaderLen:], "hello")
	(&ICMPEcho{Type: ICMPEchoRequest, ID: 7, Seq: 3}).Marshal(b, 5)
	f.Add(b)
	f.Add(b[:ICMPHeaderLen+4])
	f.Fuzz(func(t *testing.T, b []byte) {
		ic, err := ParseICMPEcho(b)
		if err != nil {
			return
		}
		out := append([]byte(nil), b...)
		ic.Marshal(out, len(out)-ICMPHeaderLen)
		if back, err := ParseICMPEcho(out); err != nil || back != ic {
			t.Fatalf("round trip: %+v became %+v (%v)", ic, back, err)
		}
	})
}

func FuzzParseUDP(f *testing.F) {
	h := UDPHeader{SrcPort: 53, DstPort: 4000, Length: UDPHeaderLen + 3, Checksum: 0xbeef}
	b := make([]byte, UDPHeaderLen, UDPHeaderLen+3)
	h.Marshal(b)
	f.Add(append(b, 1, 2, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseUDP(b)
		if err != nil {
			return
		}
		out := make([]byte, UDPHeaderLen)
		h.Marshal(out)
		if back, err := ParseUDP(out); err != nil || back != h {
			t.Fatalf("round trip: %+v became %+v (%v)", h, back, err)
		}
	})
}
