package netpkt

import "encoding/binary"

// Sum16 adds the 16-bit one's-complement sum of b to an accumulated partial
// sum. Carries are deferred; fold with Fold16 when done. Odd-length input is
// padded with a zero byte, per RFC 1071.
//
// The result is exactly acc plus b's big-endian 16-bit words, modulo 2^32,
// as a loop over the words would give, but b is read eight bytes at a time:
// each 64-bit word's four 16-bit words are summed in two 32-bit lanes. At
// most 64 KiB go into the lanes before they are added up, so neither lane
// carries into the other.
func Sum16(b []byte, acc uint32) uint32 {
	const lo = 0x0000ffff0000ffff
	for len(b) >= 8 {
		n := min(len(b), 1<<16) &^ 7
		blk := b[:n]
		var l uint64
		for ; len(blk) >= 32; blk = blk[32:] {
			x0 := binary.BigEndian.Uint64(blk[0:])
			x1 := binary.BigEndian.Uint64(blk[8:])
			x2 := binary.BigEndian.Uint64(blk[16:])
			x3 := binary.BigEndian.Uint64(blk[24:])
			l += x0&lo + x0>>16&lo + x1&lo + x1>>16&lo +
				x2&lo + x2>>16&lo + x3&lo + x3>>16&lo
		}
		for ; len(blk) >= 8; blk = blk[8:] {
			x := binary.BigEndian.Uint64(blk)
			l += x&lo + x>>16&lo
		}
		acc += uint32(l) + uint32(l>>32)
		b = b[n:]
	}
	for ; len(b) >= 2; b = b[2:] {
		acc += uint32(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

// Fold16 reduces an accumulated sum to the final one's-complement checksum.
func Fold16(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return ^uint16(acc)
}

// Checksum computes the Internet checksum of b.
func Checksum(b []byte) uint16 {
	return Fold16(Sum16(b, 0))
}

// PseudoSum accumulates the IPv4 pseudo-header (src, dst, zero+proto,
// length) used by TCP and UDP checksums. The partial (un-folded) form is
// what checksum offloading hands to the NIC: software leaves the pseudo-sum
// in the checksum field and the device finishes over the payload.
func PseudoSum(src, dst IPAddr, proto uint8, length uint16) uint32 {
	var ph [12]byte
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], length)
	return Sum16(ph[:], 0)
}

// TransportChecksum computes the full TCP/UDP checksum over the pseudo
// header and the given segment bytes.
func TransportChecksum(src, dst IPAddr, proto uint8, segment []byte) uint16 {
	return Fold16(Sum16(segment, PseudoSum(src, dst, proto, uint16(len(segment)))))
}

// VerifyTransportChecksum reports whether a received TCP/UDP segment's
// embedded checksum is valid.
func VerifyTransportChecksum(src, dst IPAddr, proto uint8, segment []byte) bool {
	return Fold16(Sum16(segment, PseudoSum(src, dst, proto, uint16(len(segment))))) == 0
}
