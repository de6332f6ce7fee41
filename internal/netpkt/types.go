// Package netpkt implements the wire formats of the stack — Ethernet II,
// ARP, IPv4, ICMPv4, UDP and TCP — together with Internet checksums
// (including the pseudo-header and partial forms used by checksum
// offloading) and the scatter/gather packet chains that ride through the
// fast-path channels as rich-pointer arrays (paper §V-C "Zero Copy").
package netpkt

import (
	"fmt"
	"strconv"
	"strings"

	"newtos/internal/shm"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones Ethernet address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IPAddr is an IPv4 address.
type IPAddr [4]byte

func (a IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// U32 returns the address as a big-endian uint32 (for routing math and for
// packing into message args).
func (a IPAddr) U32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IPFromU32 is the inverse of U32.
func IPFromU32(v uint32) IPAddr {
	return IPAddr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// ParseIP parses dotted-quad notation.
func ParseIP(s string) (IPAddr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return IPAddr{}, fmt.Errorf("netpkt: bad IPv4 %q", s)
	}
	var a IPAddr
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return IPAddr{}, fmt.Errorf("netpkt: bad IPv4 %q", s)
		}
		a[i] = byte(v)
	}
	return a, nil
}

// MustIP is ParseIP for constants; panics on error.
func MustIP(s string) IPAddr {
	a, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return a
}

// InSubnet reports whether a and b share the /maskBits prefix.
func (a IPAddr) InSubnet(b IPAddr, maskBits int) bool {
	if maskBits <= 0 {
		return true
	}
	if maskBits > 32 {
		maskBits = 32
	}
	mask := uint32(0xffffffff) << (32 - uint(maskBits))
	return a.U32()&mask == b.U32()&mask
}

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Chunk is one piece of a scattered packet: a rich pointer for provenance
// (who owns/frees it) plus the resolved byte view.
type Chunk struct {
	Ptr  shm.RichPtr
	Data []byte
}

// Packet is a scatter/gather chain of chunks — the "long chains of
// pointers" the stack passes zero-copy from producer to consumers.
type Packet struct {
	Chunks []Chunk
}

// Len returns the total byte length of the chain.
func (p *Packet) Len() int {
	n := 0
	for _, c := range p.Chunks {
		n += len(c.Data)
	}
	return n
}

// Ptrs returns the rich-pointer chain for embedding into a channel request.
func (p *Packet) Ptrs() []shm.RichPtr {
	out := make([]shm.RichPtr, len(p.Chunks))
	for i, c := range p.Chunks {
		out[i] = c.Ptr
	}
	return out
}

// CopyTo linearizes the chain into dst, returning bytes written. This is
// what a NIC's gather DMA engine does when it serializes the frame.
func (p *Packet) CopyTo(dst []byte) int {
	n := 0
	for _, c := range p.Chunks {
		n += copy(dst[n:], c.Data)
		if n == len(dst) {
			break
		}
	}
	return n
}

// Bytes linearizes the chain into a fresh slice.
func (p *Packet) Bytes() []byte {
	out := make([]byte, p.Len())
	p.CopyTo(out)
	return out
}

// Resolve builds a Packet from a rich-pointer chain by resolving each
// pointer to its (read-only) view in space.
func Resolve(space *shm.Space, ptrs []shm.RichPtr) (Packet, error) {
	p := Packet{Chunks: make([]Chunk, 0, len(ptrs))}
	for _, ptr := range ptrs {
		v, err := space.View(ptr)
		if err != nil {
			return Packet{}, fmt.Errorf("resolve chain: %w", err)
		}
		p.Chunks = append(p.Chunks, Chunk{Ptr: ptr, Data: v})
	}
	return p, nil
}
