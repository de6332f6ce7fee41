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

// newDoor boots the TCP door routing to two shards, with no transports
// attached: what it forwards stays staged on its edges.
func newDoor(t testing.TB) (*door, *storage.Store) {
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	s := New(wiring.NewPorts(hub, "sc"), TCP(2))
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

// blank is a two-shard TCP door with empty tables, to load a record into.
func blank() *door {
	return &door{Door: TCP(2), subs: map[uint32]kipc.EndpointID{}, vsocks: map[uint32]*vsock{}}
}

// TestSmallShardTableSavesAtOnce: below staterec.EntriesPerMilli entries a
// routing or subscription change is in storage before the call that made it
// is even forwarded, so no reply acknowledging it can precede it. Virtual
// time: the door reads no clock.
func TestSmallShardTableSavesAtOnce(t *testing.T) {
	d, _ := newDoor(t)
	now := time.Unix(1000, 0)
	d.Poll(now)
	for i := 1; i <= 3; i++ { // three creates in one iteration: same now
		d.route(7, msg.Req{ID: uint64(i), Op: msg.OpSockCreate})
		if got := stored(t, d).vsocks; len(got) != i || got[uint32(i)] == nil || got[uint32(i)].owner != -1 {
			t.Fatalf("after create %d storage holds %d sockets: %+v", i, len(got), got)
		}
	}
	bind := msg.Req{ID: 9, Op: msg.OpSockBind, Flow: 2}
	bind.Arg[0] = 8080
	g := d.broadcast(7, bind.ID, bind, 2)
	g.bindPort, g.remaining = 8080, 1
	d.gathered(g, msg.StatusOK)
	if v := stored(t, d).vsocks[2]; v.port != 8080 {
		t.Fatalf("bound port not saved: %+v", v)
	}
	arm := msg.Req{Op: msg.OpSockSetFlags, Flow: tcpSock}
	arm.Arg[0] = msg.SockNonblock
	d.noteSubscription(7, arm)
	if got := stored(t, d).subs; len(got) != 1 || got[tcpSock] != 7 {
		t.Fatalf("subscription not saved: %v", got)
	}
	d.noteSubscription(7, msg.Req{Op: msg.OpSockClose, Flow: tcpSock})
	if got := stored(t, d).subs; len(got) != 0 {
		t.Fatalf("closed socket still subscribed in storage: %v", got)
	}
	puts, _ := d.store.Stats()
	d.noteSubscription(7, msg.Req{Op: msg.OpSockClose, Flow: tcpSock}) // changes nothing
	if after, _ := d.store.Stats(); after != puts {
		t.Fatal("a call that changed no table was saved")
	}
	if due := d.meta.Deadline(d.entries()); !due.IsZero() {
		t.Fatal("a flush is pending on a small table")
	}
}

// tcpSock is an engine-assigned socket id (shard 0's first).
const tcpSock = 1 << 20

// TestLargeShardTablePacesSaves: on a table of a thousand sockets a burst of
// routing changes costs a bounded number of storage puts, Deadline surfaces
// the flush still owed, and the last change is saved when it fires.
func TestLargeShardTablePacesSaves(t *testing.T) {
	d, store := newDoor(t)
	srv := &Server{doors: []*door{d}}
	now := time.Unix(1000, 0)
	d.Poll(now)
	for i := 0; i < 1000; i++ {
		d.newVsock()
	}
	gap := staterec.Gap(len(d.vsocks) + 100)
	if gap < 3*time.Millisecond {
		t.Fatalf("gap for %d sockets = %v", len(d.vsocks), gap)
	}
	now = now.Add(time.Second) // quiet since the ramp
	d.Poll(now)

	const burst = 100
	start := now
	putsBefore, _ := store.Stats()
	var last *vsock
	for i := 0; i < burst; i++ {
		now = now.Add(50 * time.Microsecond)
		d.Poll(now)
		last = d.newVsock()
	}
	puts, _ := store.Stats()
	if n, max := int(puts-putsBefore), int(now.Sub(start)/staterec.Gap(1000))+1; n == 0 || n > max {
		t.Fatalf("%d changes in %v made %d puts, want 1..%d", burst, now.Sub(start), n, max)
	}
	if stored(t, d).vsocks[last.id] != nil {
		t.Fatal("the last change was saved inside the gap")
	}
	due := srv.Deadline(now)
	if due.IsZero() || due.Sub(now) > gap {
		t.Fatalf("pending flush not surfaced: Deadline = %v, now = %v, gap = %v", due, now, gap)
	}
	d.Poll(due)
	if after, _ := store.Stats(); after != puts+1 || stored(t, d).vsocks[last.id] == nil {
		t.Fatalf("Poll at the deadline made %d puts; last socket saved: %v", after-puts, stored(t, d).vsocks[last.id] != nil)
	}
	if !srv.Deadline(due).IsZero() {
		t.Fatal("a flush is still pending after the flush")
	}
}

// doorRecord is a parked record with sockets in every state it records and
// two subscribers.
func doorRecord(t testing.TB) []byte {
	d, store := newDoor(t)
	d.Poll(time.Unix(1000, 0))
	for i := 0; i < 4; i++ {
		d.newVsock()
	}
	d.vsocks[1].owner, d.vsocks[1].port = 1, 8080
	d.vsocks[2].listening, d.vsocks[3].nonblock = true, true
	d.rr = 5
	d.subs[3], d.subs[tcpSock] = 7, 9
	d.park()
	blob, _ := store.Get(d.StateKey())
	return blob
}

// TestEveryShardTablePrefixFails: a record cut anywhere — inside the
// subscription list, the counters or the routing table — is refused and
// leaves the door's own tables untouched.
func TestEveryShardTablePrefixFails(t *testing.T) {
	blob := doorRecord(t)
	d := blank()
	if err := d.load(blob); err != nil {
		t.Fatal(err)
	}
	if got := d.vsocks; len(got) != 4 || d.rr != 5 || d.nextV != 4 ||
		got[1].owner != 1 || got[1].port != 8080 || !got[2].listening || !got[3].nonblock || got[4].owner != -1 || len(got[4].armed) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if len(d.subs) != 2 || d.subs[3] != 7 || d.subs[tcpSock] != 9 {
		t.Fatalf("subscriptions round trip = %v", d.subs)
	}
	for n := 0; n < len(blob); n++ {
		d := blank()
		if err := d.load(blob[:n]); err == nil || len(d.vsocks) != 0 || len(d.subs) != 0 || d.nextV != 0 || d.rr != 0 {
			t.Fatalf("prefix %d/%d: err %v, table %+v, subs %v, nextV %d, rr %d", n, len(blob), err, d.vsocks, d.subs, d.nextV, d.rr)
		}
	}
}

// FuzzLoadShardMeta: any outcome but a panic or a hang is fine.
func FuzzLoadShardMeta(f *testing.F) {
	f.Add(doorRecord(f))
	f.Fuzz(func(t *testing.T, blob []byte) {
		_ = blank().load(blob)
	})
}
