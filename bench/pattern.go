package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Bulk streams carry a seeded pattern with a position stamp, so the sink can
// tell lost, duplicated, reordered and corrupted bytes from good ones
// without a second copy of the stream: every stampEvery-byte block of the
// stream starts with its block number XOR a per-stream key, and the rest of
// the block repeats a seeded chunk.
const (
	chunkBytes = 64 * 1024
	stampEvery = 4096
	stampBytes = 8
)

type pattern struct {
	base []byte // chunkBytes of seeded filler, shared read-only
	key  uint64
}

func newPattern(seed int64, stream int) *pattern {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream)))
	p := &pattern{base: make([]byte, chunkBytes), key: rng.Uint64()}
	rng.Read(p.base)
	return p
}

func (p *pattern) stamp(block uint64) [stampBytes]byte {
	var s [stampBytes]byte
	binary.LittleEndian.PutUint64(s[:], block^p.key)
	return s
}

// fill writes stream bytes [off, off+len(buf)) into buf; off and len(buf)
// must be multiples of chunkBytes (the bulk sender only writes whole
// chunks).
func (p *pattern) fill(buf []byte, off uint64) {
	for c := 0; c < len(buf); c += chunkBytes {
		chunk := buf[c : c+chunkBytes]
		copy(chunk, p.base)
		for b := 0; b < chunkBytes; b += stampEvery {
			s := p.stamp((off + uint64(c+b)) / stampEvery)
			copy(chunk[b:], s[:])
		}
	}
}

// verify reports whether buf holds stream bytes [off, off+len(buf)). The
// stamps are always checked; full additionally compares every filler byte
// (the traced run), which costs the sink about as much as the copy did.
func (p *pattern) verify(buf []byte, off uint64, full bool) bool {
	for i := 0; i < len(buf); {
		pos := off + uint64(i)
		in := int(pos % stampEvery)
		if in < stampBytes {
			s := p.stamp(pos / stampEvery)
			n := min(stampBytes-in, len(buf)-i)
			if !bytes.Equal(buf[i:i+n], s[in:in+n]) {
				return false
			}
			i += n
			continue
		}
		n := min(stampEvery-in, len(buf)-i)
		if full {
			b := int(pos % chunkBytes)
			if !bytes.Equal(buf[i:i+n], p.base[b:b+n]) {
				return false
			}
		}
		i += n
	}
	return true
}

// echoPayload returns the seq-th small message of a stream: seeded filler
// with the sequence number in front, so a stale or crossed reply differs.
func echoPayload(buf []byte, filler []byte, seq uint64) {
	copy(buf, filler)
	binary.LittleEndian.PutUint64(buf, seq)
}
