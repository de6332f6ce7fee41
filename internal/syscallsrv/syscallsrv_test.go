package syscallsrv

import (
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/staterec"
	"newtos/internal/storage"
	"newtos/internal/wiring"
)

// newDoor boots the TCP door with no transport attached: what it forwards
// stays staged on its edge.
func newDoor(t testing.TB) (*door, *storage.Store) {
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	s := New(wiring.NewPorts(hub, "sc"), TCP())
	if err := s.Init(&proc.Runtime{Bell: channel.NewDoorbell(), Incarnation: 1}, false); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s.doors[0], hub.Store
}

// stored reads the parked record back the way a restarted door does.
func stored(t testing.TB, d *door) *door {
	t.Helper()
	blob, ok := d.store.Get(d.StateKey())
	if !ok {
		t.Fatal("no door record in storage")
	}
	got := blank()
	if err := got.load(blob); err != nil {
		t.Fatal(err)
	}
	return got
}

// blank is a TCP door with an empty table, to load a record into.
func blank() *door {
	return &door{Door: TCP(), subs: map[uint32]kipc.EndpointID{}}
}

// arm is the call that subscribes its caller to flow's readiness events.
func arm(flow uint32) msg.Req {
	r := msg.Req{Op: msg.OpSockSetFlags, Flow: flow}
	r.Arg[0] = msg.SockNonblock
	return r
}

// tcpSock is the first socket id the TCP engine hands out.
const tcpSock = 2001

// TestSmallDoorRecordSavesAtOnce: below staterec.EntriesPerMilli entries a
// subscription change is in storage before the call that made it is even
// forwarded, so no reply acknowledging it can precede it. Virtual time:
// the door reads no clock.
func TestSmallDoorRecordSavesAtOnce(t *testing.T) {
	d, _ := newDoor(t)
	now := time.Unix(1000, 0)
	d.Poll(now)
	for i := 1; i <= 3; i++ { // three subscriptions in one iteration: same now
		d.noteSubscription(7, arm(tcpSock+uint32(i)))
		if got := stored(t, d).subs; len(got) != i || got[tcpSock+uint32(i)] != 7 {
			t.Fatalf("after subscription %d storage holds %v", i, got)
		}
	}
	d.noteSubscription(8, arm(tcpSock+1)) // another app takes the socket over
	if got := stored(t, d).subs; got[tcpSock+1] != 8 {
		t.Fatalf("new subscriber not saved: %v", got)
	}
	d.noteSubscription(7, msg.Req{Op: msg.OpSockClose, Flow: tcpSock + 1})
	if got := stored(t, d).subs; len(got) != 2 || got[tcpSock+1] != 0 {
		t.Fatalf("closed socket still subscribed in storage: %v", got)
	}
	puts, _ := d.store.Stats()
	d.noteSubscription(7, msg.Req{Op: msg.OpSockClose, Flow: tcpSock + 1}) // changes nothing
	d.noteSubscription(7, arm(tcpSock+2))                                  // nor does this
	if after, _ := d.store.Stats(); after != puts {
		t.Fatal("a call that changed no table was saved")
	}
	if due := d.meta.Deadline(d.entries()); !due.IsZero() {
		t.Fatal("a flush is pending on a small table")
	}
}

// TestLargeDoorRecordPacesSaves: on a table of a thousand subscriptions a
// burst of changes costs a bounded number of storage puts, Deadline
// surfaces the flush still owed, and the last change is saved when it
// fires.
func TestLargeDoorRecordPacesSaves(t *testing.T) {
	d, store := newDoor(t)
	srv := &Server{doors: []*door{d}}
	now := time.Unix(1000, 0)
	d.Poll(now)
	flow := uint32(tcpSock)
	for i := 0; i < 1000; i++ {
		flow++
		d.noteSubscription(7, arm(flow))
	}
	gap := staterec.Gap(len(d.subs) + 100)
	if gap < 3*time.Millisecond {
		t.Fatalf("gap for %d subscriptions = %v", len(d.subs), gap)
	}
	now = now.Add(time.Second) // quiet since the ramp
	d.Poll(now)

	const burst = 100
	start := now
	putsBefore, _ := store.Stats()
	for i := 0; i < burst; i++ {
		now = now.Add(50 * time.Microsecond)
		d.Poll(now)
		flow++
		d.noteSubscription(7, arm(flow))
	}
	puts, _ := store.Stats()
	if n, max := int(puts-putsBefore), int(now.Sub(start)/staterec.Gap(1000))+1; n == 0 || n > max {
		t.Fatalf("%d changes in %v made %d puts, want 1..%d", burst, now.Sub(start), n, max)
	}
	if _, ok := stored(t, d).subs[flow]; ok {
		t.Fatal("the last change was saved inside the gap")
	}
	due := srv.Deadline(now)
	if due.IsZero() || due.Sub(now) > gap {
		t.Fatalf("pending flush not surfaced: Deadline = %v, now = %v, gap = %v", due, now, gap)
	}
	d.Poll(due)
	if after, _ := store.Stats(); after != puts+1 || stored(t, d).subs[flow] != 7 {
		t.Fatalf("Poll at the deadline made %d puts; last subscription saved: %v", after-puts, stored(t, d).subs[flow] == 7)
	}
	if !srv.Deadline(due).IsZero() {
		t.Fatal("a flush is still pending after the flush")
	}
}

// doorRecord is a parked record with three subscribers.
func doorRecord(t testing.TB) []byte {
	d, store := newDoor(t)
	d.Poll(time.Unix(1000, 0))
	d.subs[3], d.subs[tcpSock], d.subs[tcpSock+1] = 7, 9, 9
	d.park()
	blob, _ := store.Get(d.StateKey())
	return blob
}

// TestEveryDoorRecordPrefixFails: a record cut anywhere inside the
// subscription list is refused and leaves the door's own table untouched.
func TestEveryDoorRecordPrefixFails(t *testing.T) {
	blob := doorRecord(t)
	d := blank()
	if err := d.load(blob); err != nil {
		t.Fatal(err)
	}
	if len(d.subs) != 3 || d.subs[3] != 7 || d.subs[tcpSock] != 9 || d.subs[tcpSock+1] != 9 {
		t.Fatalf("subscriptions round trip = %v", d.subs)
	}
	for n := 0; n < len(blob); n++ {
		d := blank()
		if err := d.load(blob[:n]); err == nil || len(d.subs) != 0 {
			t.Fatalf("prefix %d/%d: err %v, subs %v", n, len(blob), err, d.subs)
		}
	}
}

// FuzzLoadDoorRecord: any outcome but a panic or a hang is fine.
func FuzzLoadDoorRecord(f *testing.F) {
	f.Add(doorRecord(f))
	f.Fuzz(func(t *testing.T, blob []byte) {
		_ = blank().load(blob)
	})
}
