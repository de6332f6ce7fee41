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

// newServer boots a SYSCALL server routing to two TCP shards, with no
// transports attached: what it forwards stays staged on its edges.
func newServer(t testing.TB) (*Server, *storage.Store) {
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	s := New(wiring.NewPorts(hub, "sc"), 2)
	if err := s.Init(&proc.Runtime{Bell: channel.NewDoorbell(), Incarnation: 1}, false); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, hub.Store
}

// stored reads the parked shard table back the way a restarted server does.
func stored(t testing.TB, store *storage.Store) map[uint32]*vsock {
	t.Helper()
	blob, ok := store.Get(ShardMetaKey)
	if !ok {
		t.Fatal("no shard table in storage")
	}
	return load(t, blob)
}

func load(t testing.TB, blob []byte) map[uint32]*vsock {
	t.Helper()
	s := &Server{nShards: 2, vsocks: make(map[uint32]*vsock)}
	if err := s.loadShardMeta(blob); err != nil {
		t.Fatal(err)
	}
	return s.vsocks
}

// TestSmallShardTableSavesAtOnce: below staterec.EntriesPerMilli sockets a
// routing change is in storage before the call that made it is even
// forwarded, so no reply acknowledging it can precede it. Virtual time: the
// server reads no clock.
func TestSmallShardTableSavesAtOnce(t *testing.T) {
	s, store := newServer(t)
	now := time.Unix(1000, 0)
	s.Poll(now)
	for i := 1; i <= 3; i++ { // three creates in one iteration: same now
		s.dispatch(0, 7, msg.Req{ID: uint64(i), Op: msg.OpSockCreate})
		if got := stored(t, store); len(got) != i || got[uint32(i)] == nil || got[uint32(i)].owner != -1 {
			t.Fatalf("after create %d storage holds %d sockets: %+v", i, len(got), got)
		}
	}
	bind := msg.Req{ID: 9, Op: msg.OpSockBind, Flow: 2}
	bind.Arg[0] = 8080
	g := s.broadcastTCP(7, bind, bind, 2)
	g.bindPort, g.remaining = 8080, 0
	s.finishGather(g)
	if v := stored(t, store)[2]; v.port != 8080 {
		t.Fatalf("bound port not saved: %+v", v)
	}
	if !s.Deadline(now).IsZero() {
		t.Fatal("a flush is pending on a small table")
	}
}

// TestLargeShardTablePacesSaves: on a table of a thousand sockets a burst of
// routing changes costs a bounded number of storage puts, Deadline surfaces
// the flush still owed, and the last change is saved when it fires.
func TestLargeShardTablePacesSaves(t *testing.T) {
	s, store := newServer(t)
	now := time.Unix(1000, 0)
	s.Poll(now)
	for i := 0; i < 1000; i++ {
		s.newVsock()
	}
	gap := staterec.Gap(len(s.vsocks) + 100)
	if gap < 3*time.Millisecond {
		t.Fatalf("gap for %d sockets = %v", len(s.vsocks), gap)
	}
	now = now.Add(time.Second) // quiet since the ramp
	s.Poll(now)

	const burst = 100
	start := now
	putsBefore, _ := store.Stats()
	var last *vsock
	for i := 0; i < burst; i++ {
		now = now.Add(50 * time.Microsecond)
		s.Poll(now)
		last = s.newVsock()
	}
	puts, _ := store.Stats()
	if n, max := int(puts-putsBefore), int(now.Sub(start)/staterec.Gap(1000))+1; n == 0 || n > max {
		t.Fatalf("%d changes in %v made %d puts, want 1..%d", burst, now.Sub(start), n, max)
	}
	if stored(t, store)[last.id] != nil {
		t.Fatal("the last change was saved inside the gap")
	}
	due := s.Deadline(now)
	if due.IsZero() || due.Sub(now) > gap {
		t.Fatalf("pending flush not surfaced: Deadline = %v, now = %v, gap = %v", due, now, gap)
	}
	s.Poll(due)
	if after, _ := store.Stats(); after != puts+1 || stored(t, store)[last.id] == nil {
		t.Fatalf("Poll at the deadline made %d puts; last socket saved: %v", after-puts, stored(t, store)[last.id] != nil)
	}
	if !s.Deadline(due).IsZero() {
		t.Fatal("a flush is still pending after the flush")
	}
}

// shardTable is a parked table with sockets in every state it records.
func shardTable(t testing.TB) []byte {
	s, store := newServer(t)
	s.Poll(time.Unix(1000, 0))
	for i := 0; i < 4; i++ {
		s.newVsock()
	}
	s.vsocks[1].owner, s.vsocks[1].port = 1, 8080
	s.vsocks[2].listening, s.vsocks[3].nonblock = true, true
	s.rr = 5
	s.flushShardMeta()
	blob, _ := store.Get(ShardMetaKey)
	return blob
}

// TestEveryShardTablePrefixFails: a table cut anywhere is refused and leaves
// the server's own table untouched.
func TestEveryShardTablePrefixFails(t *testing.T) {
	blob := shardTable(t)
	if got := load(t, blob); len(got) != 4 ||
		got[1].owner != 1 || got[1].port != 8080 || !got[2].listening || !got[3].nonblock || got[4].owner != -1 || len(got[4].armed) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	for n := 0; n < len(blob); n++ {
		s := &Server{nShards: 2, vsocks: make(map[uint32]*vsock)}
		if err := s.loadShardMeta(blob[:n]); err == nil || len(s.vsocks) != 0 || s.nextV != 0 || s.rr != 0 {
			t.Fatalf("prefix %d/%d: err %v, table %+v, nextV %d, rr %d", n, len(blob), err, s.vsocks, s.nextV, s.rr)
		}
	}
}

// FuzzLoadShardMeta: any outcome but a panic or a hang is fine.
func FuzzLoadShardMeta(f *testing.F) {
	f.Add(shardTable(f))
	f.Fuzz(func(t *testing.T, blob []byte) {
		s := &Server{nShards: 2, vsocks: make(map[uint32]*vsock)}
		_ = s.loadShardMeta(blob)
	})
}
