package staterec

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/shm"
)

// sample has one field of everything the codec carries.
type sample struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	i     int
	i32   int32
	dur   time.Duration
	flag  bool
	at    time.Time
	never time.Time
	addr  [4]byte
	name  string
	blank string
	ptr   shm.RichPtr
	chain []shm.RichPtr
	none  []shm.RichPtr
	reqs  []msg.Req
}

func (s *sample) record(c *Codec) {
	Num(c, &s.u8)
	Num(c, &s.u16)
	Num(c, &s.u32)
	Num(c, &s.u64)
	Num(c, &s.i)
	Num(c, &s.i32)
	Num(c, &s.dur)
	c.Bool(&s.flag)
	c.Time(&s.at)
	c.Time(&s.never)
	c.Bytes(s.addr[:])
	c.String(&s.name)
	c.String(&s.blank)
	c.Ptr(&s.ptr)
	List(c, &s.chain, PtrSize, c.Ptr)
	List(c, &s.none, PtrSize, c.Ptr)
	List(c, &s.reqs, MinReqSize, c.Req)
}

func filled() sample {
	req := msg.Req{ID: 77, Op: msg.OpIPSend, Status: msg.StatusErrAgain, Flow: 9, Arg: [4]uint64{1, 2, 3, 1 << 63}}
	req.SetChain([]shm.RichPtr{{Pool: 3, Gen: 1, Off: 4096, Len: 1460}, {Pool: 4, Gen: 2, Off: 0, Len: 7}})
	return sample{
		u8: 200, u16: 65000, u32: 1 << 31, u64: 1 << 63, i: -5, i32: -11, dur: -time.Second,
		flag: true, at: time.Unix(12, 345), addr: [4]byte{10, 0, 0, 1}, name: "eth0",
		ptr:   shm.RichPtr{Pool: 1, Gen: 2, Off: 3, Len: 4},
		chain: []shm.RichPtr{{Pool: 9, Len: 1}},
		reqs:  []msg.Req{req, {Op: msg.OpSockReply}},
	}
}

func TestRoundTrip(t *testing.T) {
	want := filled()
	var got sample
	if err := Decode(Encode(want.record), got.record); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\nencoded %+v", got, want)
	}
}

// TestEveryPrefixFails: a record cut anywhere reads back as ErrShort.
func TestEveryPrefixFails(t *testing.T) {
	want := filled()
	full := Encode(want.record)
	for n := 0; n < len(full); n++ {
		var got sample
		if err := Decode(full[:n], got.record); !errors.Is(err, ErrShort) {
			t.Fatalf("prefix %d/%d: Decode = %v, want ErrShort", n, len(full), err)
		}
	}
	var got sample
	if err := Decode(append(full, 0), got.record); !errors.Is(err, ErrTrailing) {
		t.Fatalf("one byte too many: Decode = %v, want ErrTrailing", err)
	}
}

func TestCountIsBoundedByInput(t *testing.T) {
	blob := Encode(func(c *Codec) {
		n := 1 << 30 // claims a billion elements, carries one
		c.Count(&n, 8)
		one := uint64(1)
		Num(c, &one)
	})
	var got []uint64
	err := Decode(blob, func(c *Codec) {
		List(c, &got, 8, func(v *uint64) { Num(c, v) })
	})
	if got != nil || !errors.Is(err, ErrShort) {
		t.Fatalf("list behind an impossible count: %d entries, err %v", len(got), err)
	}
}

// TestStringIsBoundedByInput: a string's length prefix cannot make the
// decoder read or allocate beyond the bytes that are there.
func TestStringIsBoundedByInput(t *testing.T) {
	blob := Encode(func(c *Codec) {
		n := 1 << 30 // claims a gigabyte, carries three bytes
		c.Count(&n, 1)
		c.Bytes([]byte("eth"))
	})
	var got string
	if err := Decode(blob, func(c *Codec) { c.String(&got) }); got != "" || !errors.Is(err, ErrShort) {
		t.Fatalf("string behind an impossible length: %q, err %v", got, err)
	}
}

func TestReqChainIsBounded(t *testing.T) {
	blob := Encode(func(c *Codec) { c.Req(&msg.Req{}) })
	blob[len(blob)-1] = msg.MaxPtrs + 1 // NPtr: a chain longer than a slot holds
	blob = append(blob, make([]byte, (msg.MaxPtrs+1)*PtrSize)...)
	var r msg.Req
	if err := Decode(blob, func(c *Codec) { c.Req(&r) }); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("a chain of MaxPtrs+1: Decode = %v", err)
	}
}

func TestGapAndPacer(t *testing.T) {
	if Gap(EntriesPerMilli-1) != 0 || Gap(EntriesPerMilli) != time.Millisecond || Gap(100_000) != 390*time.Millisecond {
		t.Fatalf("Gap = %v, %v, %v", Gap(EntriesPerMilli-1), Gap(EntriesPerMilli), Gap(100_000))
	}
	var p Pacer
	t0 := time.Unix(100, 0)
	if p.Take(t0, 1) || !p.Deadline(1).IsZero() {
		t.Fatal("a clean table is due")
	}
	p.Mark()
	if !p.Take(t0, 1) {
		t.Fatal("a small changed table is not due at once")
	}
	if p.Take(t0, 1) {
		t.Fatal("one change, two flushes")
	}
	p.Mark()
	big := 4 * EntriesPerMilli
	if d := p.Deadline(big); !d.Equal(t0.Add(4 * time.Millisecond)) {
		t.Fatalf("Deadline = %v", d)
	}
	if p.Take(t0.Add(3*time.Millisecond), big) || !p.Take(t0.Add(4*time.Millisecond), big) {
		t.Fatal("a 4 ms gap is not kept")
	}
	p.Mark()
	if !p.Take(t0.Add(4*time.Millisecond), 1) {
		t.Fatal("a table that shrank below the eager size still waits")
	}
}
