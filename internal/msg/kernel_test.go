package msg_test

import (
	"testing"
	"testing/quick"
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/shm"
)

// roundTrip sends r from one kernel endpoint to another and returns what
// arrives. A request crosses the kernel marshalled by value: the kernel
// message carries the msg.Req itself, with no byte encoding in between.
func roundTrip(t *testing.T, r msg.Req) msg.Req {
	t.Helper()
	k := kipc.New(kipc.Config{})
	a, _ := k.Register("a", nil)
	b, _ := k.Register("b", nil)
	if err := a.Send(b.ID(), kipc.Msg{Req: r}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Receive(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return m.Req
}

func TestMarshalRoundTrip(t *testing.T) {
	r := msg.Req{ID: 1 << 60, Op: msg.OpSockRecvData, Status: msg.StatusErrConnRst, Flow: 0xdeadbeef}
	r.Arg = [4]uint64{1, 2, 3, 1 << 63}
	ptrs := make([]shm.RichPtr, msg.MaxPtrs)
	for i := range ptrs {
		ptrs[i] = shm.RichPtr{Pool: shm.PoolID(i), Off: uint32(i * 64), Len: uint32(i + 1)}
	}
	r.SetChain(ptrs)
	if got := roundTrip(t, r); got != r {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// Property: a trip through the kernel is the identity for arbitrary field
// values.
func TestQuickMarshalRoundTrip(t *testing.T) {
	prop := func(id uint64, op uint16, status int32, flow uint32, a0, a1 uint64, nptr uint8) bool {
		r := msg.Req{ID: id, Op: msg.Op(op), Status: status, Flow: flow}
		r.Arg[0], r.Arg[1] = a0, a1
		n := int(nptr) % (msg.MaxPtrs + 1)
		ptrs := make([]shm.RichPtr, n)
		for i := range ptrs {
			ptrs[i] = shm.RichPtr{Pool: shm.PoolID(i), Off: uint32(i * 64), Len: uint32(i + 1)}
		}
		r.SetChain(ptrs)
		return roundTrip(t, r) == r
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
