package tcpeng

import (
	"bytes"
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
// (udpeng's state_test.go has the same helpers; test files cannot share them.)
func fillNonZero(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	*next++
	switch {
	case v.Type() == reflect.TypeOf(time.Time{}):
		v.Set(reflect.ValueOf(time.Unix(0, *next)))
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

func TestPCBRecordCoversEveryField(t *testing.T) {
	hasBuf := true
	checkRecord(t, map[string]bool{
		"heapPos": true, // timer heap
		"buf":     true, // crosses by handle; the record carries only its presence
	}, func(p *pcb, c *staterec.Codec) { hasBuf = p.record(c) })
	if hasBuf {
		t.Error("hasBuf set for a pcb without a buffer")
	}
	image := staterec.Encode(func(c *staterec.Codec) { (&pcb{buf: &sockbuf.Buf{}}).record(c) })
	if _ = staterec.Decode(image, func(c *staterec.Codec) { hasBuf = new(pcb).record(c) }); !hasBuf {
		t.Error("hasBuf lost")
	}
	if n := reflect.TypeOf(Stats{}).NumField(); len(new(Stats).counters()) != n {
		t.Errorf("Stats.counters lists %d of %d fields", len(new(Stats).counters()), n)
	}
}

// liveImages builds a sender and a receiver mid-transfer and mid-recovery —
// listener, established connections with unacknowledged stream chunks, a
// queued receive payload, a hole the wire keeps open (so the receiver's
// reassembly queue and the sender's scoreboard are populated), a nonblocking
// socket, armed timers — and returns their handoff and crash images with the
// buffer handles.
func liveImages(t testing.TB) (images [][]byte, bufs []map[uint32]*sockbuf.Buf, now time.Time) {
	pi := newPipe(t, false)
	var crash []byte
	pi.b.cfg.SaveState = func(b []byte) { crash = b }
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(4242)
	fl := msg.Req{Op: msg.OpSockSetFlags, Flow: child}
	fl.Arg[0] = msg.SockNonblock
	pi.call(pi.b, fl)
	hole := pi.a.pcbOf(csock).sndNxt + 2*MSS
	pi.fate = func(_ string, _ int, seg []byte) (int, int) {
		if th, err := netpkt.ParseTCP(seg); err == nil && th.Seq == hole && len(seg) > th.DataOff {
			return 0, 0
		}
		return 1, 0
	}
	pi.sendBytes(pi.a, aBufs, csock, bytes.Repeat([]byte{7}, 20000))
	for i := 0; i < 4; i++ {
		pi.step() // the SACKs reach the sender
	}
	if snd, rcv := pi.a.pcbOf(csock), pi.b.pcbOf(child); len(snd.sacked) == 0 || !snd.inRecovery || len(rcv.oooQ) == 0 {
		t.Fatalf("no recovery state to image: %d SACKed ranges, inRecovery %v, %d segments held", len(snd.sacked), snd.inRecovery, len(rcv.oooQ))
	}
	for _, e := range []*Engine{pi.a, pi.b} {
		blob, b, err := e.HandoffState()
		if err != nil {
			t.Fatal(err)
		}
		images, bufs = append(images, blob), append(bufs, b)
	}
	if crash == nil {
		t.Fatal("no crash image saved")
	}
	return append(images, crash), append(bufs, nil), pi.now
}

func freshEngine(t testing.TB) *Engine {
	space := shm.NewSpace()
	hdr, err := space.NewPool("fresh.hdr", 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Space: space, LocalIP: netpkt.MustIP("10.0.0.9")}, hdr)
}

// TestEveryImagePrefixFails: an image cut anywhere is refused — no panic,
// no half-read success.
func TestEveryImagePrefixFails(t *testing.T) {
	images, bufs, now := liveImages(t)
	for i, img := range images {
		if err := freshEngine(t).Restore(img, bufs[i], now); err != nil {
			t.Fatalf("image %d: the whole image is refused: %v", i, err)
		}
		for n := 0; n < len(img); n++ {
			if err := freshEngine(t).Restore(img[:n], bufs[i], now); err == nil {
				t.Fatalf("image %d: prefix %d/%d restored without error", i, n, len(img))
			}
		}
	}
}

// FuzzRestore feeds arbitrary bytes to the image decoder (crash and
// live-update images share it): any outcome but a panic or a hang is fine.
func FuzzRestore(f *testing.F) {
	images, _, _ := liveImages(f)
	for _, img := range images {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		_ = freshEngine(t).Restore(blob, nil, time.Unix(1000, 0))
	})
}

// TestCrashImageIsAProjection: what SaveState parks restores, through the
// same install path as a handoff, to exactly the listeners.
func TestCrashImageIsAProjection(t *testing.T) {
	images, _, _ := liveImages(t)
	e := freshEngine(t)
	if err := e.Restore(images[2], nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	id, ok := e.listeners[4242]
	if !ok || e.NumSockets() != 1 {
		t.Fatalf("restored %d sockets, listener on 4242: %v", e.NumSockets(), ok)
	}
	p := e.pcbOf(id)
	if p.state != StateListen || !p.bound || p.nonblock || len(p.acceptQ) != 0 || p.backlog == 0 || p.mss != MSS {
		t.Fatalf("restored listener = %+v", *p)
	}
	if !e.ports.isReserved(4242) || len(e.timers) != 0 || e.NumBuffers() != 0 {
		t.Fatal("listener port not reserved, or live state crossed a crash")
	}
}

// saves counts the images handed to Config.SaveState and keeps the last.
type saves struct {
	n    int
	last []byte
}

func (s *saves) hook(e *Engine) { e.cfg.SaveState = func(b []byte) { s.n++; s.last = b } }

func (s *saves) hasListener(t testing.TB, port uint16) bool {
	t.Helper()
	e := freshEngine(t)
	if err := e.Restore(s.last, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, ok := e.listeners[port]
	return ok
}

func newSocket(e *Engine, now time.Time) uint32 {
	e.FromFront(msg.Req{ID: 1, Op: msg.OpSockCreate}, now)
	reps := e.DrainToFront()
	return reps[len(reps)-1].Flow
}

// bindPort binds flow to port and drains the reply.
func bindPort(e *Engine, now time.Time, flow uint32, port uint16) {
	bind := msg.Req{ID: 2, Op: msg.OpSockBind, Flow: flow}
	bind.Arg[0] = uint64(port)
	e.FromFront(bind, now)
	e.DrainToFront()
}

// listenOn binds flow and leaves the listen's reply undrained.
func listenOn(e *Engine, now time.Time, flow uint32, port uint16) {
	bindPort(e, now, flow, port)
	e.FromFront(msg.Req{ID: 3, Op: msg.OpSockListen, Flow: flow}, now)
}

// TestSmallTableSavesBeforeTheReplyLeaves: below staterec.EntriesPerMilli
// sockets, the transitions of one loop iteration (intake, then Tick) are in
// storage, in one save, before DrainToFront yields the replies that
// acknowledge them. Virtual time: the engine is pure in now.
func TestSmallTableSavesBeforeTheReplyLeaves(t *testing.T) {
	e := freshEngine(t)
	var s saves
	s.hook(e)
	now := time.Unix(1000, 0)
	for base := uint16(7000); base < 7020; base += 10 {
		flows := make([]uint32, 3)
		for i := range flows {
			flows[i] = newSocket(e, now)
			bindPort(e, now, flows[i], base+uint16(i))
		}
		e.Tick(now)
		// One loop iteration (same now): three listens, then Tick.
		for _, flow := range flows {
			e.FromFront(msg.Req{ID: 3, Op: msg.OpSockListen, Flow: flow}, now)
		}
		before := s.n
		e.Tick(now)
		if s.n != before+1 {
			t.Fatalf("one iteration made %d saves, want 1", s.n-before)
		}
		for port := base; port < base+3; port++ {
			if !s.hasListener(t, port) {
				t.Fatalf("listen on %d acknowledged before it was saved", port)
			}
		}
		if reps := e.DrainToFront(); len(reps) != 3 || reps[0].Status != msg.StatusOK {
			t.Fatalf("listen replies = %+v", reps)
		}
	}
	if !e.Deadline(now).IsZero() {
		t.Fatal("a save is pending on a small table")
	}
}

// TestLargeTablePacesSaves: on a table of a thousand sockets a burst of
// transitions costs a bounded number of saves, Deadline surfaces the one
// still owed, and the last transition is saved when it fires.
func TestLargeTablePacesSaves(t *testing.T) {
	e := freshEngine(t)
	now := time.Unix(1000, 0)
	flows := make([]uint32, 1000)
	for i := range flows {
		flows[i] = newSocket(e, now)
	}
	var s saves
	s.hook(e)
	gap := staterec.Gap(e.NumSockets())
	if gap < 3*time.Millisecond {
		t.Fatalf("gap for %d sockets = %v", e.NumSockets(), gap)
	}

	const burst = 100
	start := now
	for i := 0; i < burst; i++ {
		now = now.Add(50 * time.Microsecond)
		listenOn(e, now, flows[i], uint16(7000+i))
		e.Tick(now)
	}
	if max := int(now.Sub(start)/gap) + 1; s.n == 0 || s.n > max {
		t.Fatalf("%d transitions in %v made %d saves, want 1..%d", burst, now.Sub(start), s.n, max)
	}
	if s.hasListener(t, 7000+burst-1) {
		t.Fatal("the last transition was saved inside the gap")
	}
	due := e.Deadline(now)
	if due.IsZero() || due.Sub(now) > gap {
		t.Fatalf("pending save not surfaced: Deadline = %v, now = %v, gap = %v", due, now, gap)
	}
	before := s.n
	e.Tick(due)
	if s.n != before+1 || !s.hasListener(t, 7000+burst-1) {
		t.Fatalf("Tick at the deadline made %d saves; last listener saved: %v", s.n-before, s.hasListener(t, 7000+burst-1))
	}
	if !e.Deadline(due).IsZero() {
		t.Fatal("a save is still pending after the flush")
	}
}
