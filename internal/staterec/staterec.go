// Package staterec is the one way state leaves a component: the records the
// transports park in the storage server (paper §V-D), hand to a successor
// in a live update, and dump for PF's conntrack rebuild all go through a
// Codec. A record is described once, by a function that names its fields in
// wire order; Encode runs that function to write them and Decode runs the
// same function to read them back, so the two directions cannot drift.
//
// The format is positional, fixed-width and little-endian: no tags, no
// types on the wire, no version — storage dies with the node, so there is
// never an old blob to read. A list is a count followed by its elements;
// the count is checked against the bytes that remain, so a truncated or
// hostile blob cannot make a decoder allocate or loop beyond its input.
// Any other shortfall sets a sticky error and reads the remaining fields as
// zero, which lets a record be read straight through and checked once.
package staterec

import (
	"encoding/binary"
	"errors"
	"time"
	"unsafe"

	"newtos/internal/msg"
	"newtos/internal/shm"
)

var (
	// ErrShort reports a record that ends before its last field.
	ErrShort = errors.New("staterec: record truncated")
	// ErrTrailing reports input left over after the last field.
	ErrTrailing = errors.New("staterec: trailing bytes")
)

// Codec carries one record through its description, writing or reading.
type Codec struct {
	buf     []byte // written so far, or still to read
	reading bool
	err     error
}

// Encode writes the record that fields describes.
func Encode(fields func(*Codec)) []byte {
	var c Codec
	fields(&c)
	return c.buf
}

// Decode reads b as the record that fields describes. It returns the first
// error met: ErrShort when b ends early, ErrTrailing when fields leaves
// input unread, or whatever fields passed to Fail.
func Decode(b []byte, fields func(*Codec)) error {
	c := Codec{buf: b, reading: true}
	fields(&c)
	if c.err == nil && len(c.buf) > 0 {
		c.err = ErrTrailing
	}
	return c.err
}

// Reading tells a description which direction it is running in, for the
// parts that are not a plain field: gathering what to write, installing
// what was read.
func (c *Codec) Reading() bool { return c.reading }

// Err returns the first error met so far.
func (c *Codec) Err() error { return c.err }

// Fail records a description's own validation error unless one is set.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take returns the next n bytes of the input being read, or nil once it
// has run out.
func (c *Codec) take(n int) []byte {
	if c.err != nil || len(c.buf) < n {
		c.Fail(ErrShort)
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// num writes the low n bytes of x; reading, it returns the next n bytes
// zero-extended, or 0 once the input has run out.
func (c *Codec) num(x uint64, n int) uint64 {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, x)[:len(c.buf)+n]
		return x
	}
	var wide [8]byte
	copy(wide[:], c.take(n))
	return binary.LittleEndian.Uint64(wide[:])
}

// Integer is any integer-kinded field: counters, ids, ports, states,
// durations.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Num is an integer field at its own width.
func Num[T Integer](c *Codec, v *T) { *v = T(c.num(uint64(*v), int(unsafe.Sizeof(*v)))) }

func (c *Codec) Bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	*v = c.num(x, 1) != 0
}

// Time is an instant as Unix nanoseconds; the zero Time (an unarmed
// deadline) is 0 on the wire and reads back as the zero Time.
func (c *Codec) Time(t *time.Time) {
	var ns uint64
	if !t.IsZero() {
		ns = uint64(t.UnixNano())
	}
	if ns = c.num(ns, 8); c.reading && ns != 0 {
		*t = time.Unix(0, int64(ns))
	}
}

// Bytes is a fixed-length byte field, such as an address.
func (c *Codec) Bytes(v []byte) {
	if !c.reading {
		c.buf = append(c.buf, v...)
	} else {
		copy(v, c.take(len(v)))
	}
}

// String is a length-prefixed string field, such as an interface name. Its
// length is checked against the input that remains, like a list's.
func (c *Codec) String(s *string) {
	n := len(*s)
	c.Count(&n, 1)
	if !c.reading {
		c.buf = append(c.buf, *s...)
	} else {
		*s = string(c.take(n))
	}
}

// Encoded sizes of the composite fields, for Count and List.
const (
	PtrSize    = 12
	MinReqSize = 8 + 2 + 4 + 4 + 4*8 + 1
)

func (c *Codec) Ptr(p *shm.RichPtr) {
	Num(c, &p.Pool)
	Num(c, &p.Off)
	Num(c, &p.Len)
}

// Req is a queue slot with only its valid chain entries.
func (c *Codec) Req(r *msg.Req) {
	Num(c, &r.ID)
	Num(c, &r.Op)
	Num(c, &r.Status)
	Num(c, &r.Flow)
	for i := range r.Arg {
		Num(c, &r.Arg[i])
	}
	Num(c, &r.NPtr)
	if r.NPtr > msg.MaxPtrs {
		c.Fail(errors.New("staterec: request chain exceeds msg.MaxPtrs"))
		r.NPtr = 0
	}
	for i := range r.Chain() {
		c.Ptr(&r.Ptrs[i])
	}
}

// Count is a list's length. When reading, a length whose elements — at
// least minSize bytes each — could not fit in the input that remains fails
// the record and reads as 0, so the caller's loop does not run.
func (c *Codec) Count(n *int, minSize int) {
	x := c.num(uint64(*n), 4)
	if c.reading && x*uint64(minSize) > uint64(len(c.buf)) {
		c.Fail(ErrShort)
		x = 0
	}
	*n = int(x)
}

// List is a slice field: its length, then every element through elem. An
// empty list reads back as nil.
func List[T any](c *Codec, s *[]T, minSize int, elem func(*T)) {
	n := len(*s)
	c.Count(&n, minSize)
	if c.reading && n > 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}
