package udpeng

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/staterec"
)

// fillNonZero sets v — addressable, possibly reached through unexported
// fields — to a non-zero value, recursing through structs, arrays and
// slices; *next numbers the leaves so no two are equal. Kinds it does not
// know fail the test: a new field type needs a decision, not silence.
// (tcpeng's state_test.go has the same helper; test files cannot share it.)
func fillNonZero(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	*next++
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.CanInt():
		v.SetInt(*next)
	case v.CanUint():
		v.SetUint(uint64(*next))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), next)
		}
	case v.Kind() == reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), next)
		}
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), next)
		}
	default:
		t.Fatalf("fillNonZero: no rule for a %v field", v.Type())
	}
}

// checkRecord fills every field of want not named in local, carries it
// through record, and compares field by field: a field added to T without a
// line in its record fails here instead of vanishing in a live update.
func checkRecord[T any](t *testing.T, local map[string]bool, record func(*T, *staterec.Codec)) {
	t.Helper()
	var want, got T
	fields := reflect.TypeOf(want)
	exposed := func(p *T, i int) reflect.Value {
		f := reflect.ValueOf(p).Elem().Field(i)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	var next int64
	for i := 0; i < fields.NumField(); i++ {
		if !local[fields.Field(i).Name] {
			fillNonZero(t, exposed(&want, i), &next)
		}
	}
	image := staterec.Encode(func(c *staterec.Codec) { record(&want, c) })
	if err := staterec.Decode(image, func(c *staterec.Codec) { record(&got, c) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fields.NumField(); i++ {
		name, g, w := fields.Field(i).Name, exposed(&got, i), exposed(&want, i)
		switch {
		case local[name]:
			if !g.IsZero() {
				t.Errorf("%v: incarnation-local field %s crossed: %v", fields, name, g)
			}
		case w.IsZero():
			t.Errorf("%v: field %s was not filled", fields, name)
		case !reflect.DeepEqual(g.Interface(), w.Interface()):
			t.Errorf("%v: field %s: decoded %v, encoded %v", fields, name, g, w)
		}
	}
}

func TestRecordsCoverEveryField(t *testing.T) {
	// buf crosses by handle.
	checkRecord(t, map[string]bool{"buf": true}, (*socket).record)
	checkRecord(t, nil, (*pendingSend).record)
	if n := reflect.TypeOf(Stats{}).NumField(); len(new(Stats).counters()) != n {
		t.Errorf("Stats.counters lists %d of %d fields", len(new(Stats).counters()), n)
	}
}

// liveImages builds an engine in mid-operation — a bound socket with a
// queued datagram, a connected one with a parked recv, a nonblocking one, a
// send outstanding at IP, and a closed socket whose last send is too — and
// returns its handoff image with the buffer handles, and its crash image.
func liveImages(t testing.TB) (handoff []byte, bufs map[uint32]*sockbuf.Buf, crash []byte) {
	h := newHarness(t)
	peer := netpkt.MustIP("10.0.0.9")
	send := func(sock uint32) {
		chunk, _ := h.bufs[sock].Get()
		ptr, _ := h.bufs[sock].Write(chunk, []byte("in flight"))
		r := msg.Req{Op: msg.OpSockSend, Flow: sock}
		r.SetChain([]shm.RichPtr{ptr})
		r.Arg[0], r.Arg[1] = uint64(peer.U32()), 53
		h.next++
		r.ID = h.next
		h.e.FromFront(r)
	}

	s1 := h.socket()
	h.bind(s1, 7000)
	h.deliver(peer, 40, 7000, []byte("queued"))
	send(s1)

	s2 := h.socket()
	conn := msg.Req{Op: msg.OpSockConnect, Flow: s2}
	conn.Arg[0], conn.Arg[1] = uint64(peer.U32()), 53
	h.call(conn)
	h.next++
	h.e.FromFront(msg.Req{ID: h.next, Op: msg.OpSockRecv, Flow: s2})

	s3 := h.socket()
	fl := msg.Req{Op: msg.OpSockSetFlags, Flow: s3}
	fl.Arg[0] = msg.SockNonblock
	h.call(fl)

	s4 := h.socket()
	send(s4)
	h.call(msg.Req{Op: msg.OpSockClose, Flow: s4})

	handoff, bufs, err := h.e.HandoffState()
	if err != nil {
		t.Fatal(err)
	}
	h.e.Tick() // the iteration's save
	return handoff, bufs, h.saved[len(h.saved)-1]
}

// TestEveryImagePrefixFails: an image cut anywhere is refused — no panic,
// no half-read success.
func TestEveryImagePrefixFails(t *testing.T) {
	handoff, bufs, crash := liveImages(t)
	for name, img := range map[string][]byte{"handoff": handoff, "crash": crash} {
		if err := newHarness(t).e.Restore(img, bufs, time.Time{}); err != nil {
			t.Fatalf("%s: the whole image is refused: %v", name, err)
		}
		for n := 0; n < len(img); n++ {
			if err := newHarness(t).e.Restore(img[:n], bufs, time.Time{}); err == nil {
				t.Fatalf("%s: prefix %d/%d restored without error", name, n, len(img))
			}
		}
	}
}

// FuzzRestore feeds arbitrary bytes to the image decoder (crash and
// live-update images share it): any outcome but a panic or a hang is fine.
func FuzzRestore(f *testing.F) {
	handoff, bufs, crash := liveImages(f)
	f.Add(handoff)
	f.Add(crash)
	f.Fuzz(func(t *testing.T, blob []byte) {
		_ = newHarness(t).e.Restore(blob, bufs, time.Time{})
	})
}

// TestCrashImageIsAProjection: what SaveState parks restores, through the
// same install path as a handoff, to the open sockets' addresses and
// nothing live — on fresh, newly exported buffers.
func TestCrashImageIsAProjection(t *testing.T) {
	_, _, crash := liveImages(t)
	h := newHarness(t)
	if err := h.e.Restore(crash, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if h.e.NumSockets() != 3 || len(h.e.closing) != 0 || h.e.db.Len() != 0 || len(h.bufs) != 3 {
		t.Fatalf("restored %d sockets (%d closing, %d sends, %d buffers published), want 3 open ones",
			h.e.NumSockets(), len(h.e.closing), h.e.db.Len(), len(h.bufs))
	}
	connected := 0
	for id, s := range h.e.sockets {
		if s.nonblock || s.inflight != 0 || len(s.recvQ) != 0 || s.pendingRecv != 0 || s.buf != h.bufs[id] {
			t.Errorf("socket %d: live state crossed a crash: %+v", id, *s)
		}
		if s.connected && s.remotePt == 53 && s.bound {
			connected++
		}
	}
	if connected != 1 || h.e.byPort[7000] == 0 {
		t.Fatalf("addresses lost: %d connected sockets, port 7000 -> %d", connected, h.e.byPort[7000])
	}
	if fresh := h.socket(); h.e.sockets[fresh] == nil || fresh <= 1004 {
		t.Fatalf("id counter not restored: new socket got id %d", fresh)
	}
}
