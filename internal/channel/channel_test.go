package channel

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"newtos/internal/msg"
	"newtos/internal/shm"
)

func TestQueueSendRecv(t *testing.T) {
	bell := NewDoorbell()
	out, in, err := NewQueue(4, bell)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Send(msg.Req{ID: 1, Op: msg.OpPing}) {
		t.Fatal("send failed")
	}
	r, ok := in.Recv()
	if !ok || r.ID != 1 || r.Op != msg.OpPing {
		t.Fatalf("recv = %+v, %v", r, ok)
	}
	if _, ok := in.Recv(); ok {
		t.Fatal("recv on empty queue")
	}
}

func TestQueueFullNeverBlocks(t *testing.T) {
	out, _, err := NewQueue(2, NewDoorbell())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Send(msg.Req{ID: 1}) || !out.Send(msg.Req{ID: 2}) {
		t.Fatal("fill failed")
	}
	done := make(chan bool, 1)
	go func() { done <- out.Send(msg.Req{ID: 3}) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("send into full queue succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("Send blocked on a full queue")
	}
}

func TestInvalidEndpoints(t *testing.T) {
	var out Out
	var in In
	if out.Valid() || in.Valid() {
		t.Fatal("zero endpoints report valid")
	}
	if out.Send(msg.Req{}) {
		t.Fatal("send on zero Out succeeded")
	}
	if _, ok := in.Recv(); ok {
		t.Fatal("recv on zero In succeeded")
	}
	if !in.Empty() || out.Len() != 0 {
		t.Fatal("zero endpoints not empty")
	}
}

func TestDuplexBothDirections(t *testing.T) {
	bellA, bellB := NewDoorbell(), NewDoorbell()
	a, b, err := NewDuplex(8, bellA, bellB)
	if err != nil {
		t.Fatal(err)
	}
	a.Out.Send(msg.Req{ID: 1, Op: msg.OpPing})
	r, ok := b.In.Recv()
	if !ok || r.Op != msg.OpPing {
		t.Fatalf("b recv: %+v %v", r, ok)
	}
	b.Out.Send(r.Reply(msg.OpPong, msg.StatusOK))
	rep, ok := a.In.Recv()
	if !ok || rep.Op != msg.OpPong || rep.ID != 1 {
		t.Fatalf("a recv: %+v %v", rep, ok)
	}
}

func TestDoorbellWakesSleeper(t *testing.T) {
	d := NewDoorbell()
	var wg sync.WaitGroup
	woke := false
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.Arm()
		woke = d.Wait(2 * time.Second)
	}()
	time.Sleep(10 * time.Millisecond)
	d.Ring()
	wg.Wait()
	if !woke {
		t.Fatal("sleeper timed out instead of being rung")
	}
	if d.Wakeups() != 1 {
		t.Fatalf("Wakeups = %d", d.Wakeups())
	}
}

func TestDoorbellTimeout(t *testing.T) {
	d := NewDoorbell()
	d.Arm()
	start := time.Now()
	if d.Wait(20 * time.Millisecond) {
		t.Fatal("woke without a ring")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("returned too early")
	}
}

func TestDoorbellRingWhileAwakeIsCheapAndLost(t *testing.T) {
	d := NewDoorbell()
	d.Ring() // not armed: must not leave a token behind
	d.Arm()
	if d.Wait(20 * time.Millisecond) {
		t.Fatal("stale ring woke a later sleep")
	}
}

// TestDoorbellCountsEveryRing: a spinning consumer watches Posts, so a ring
// must count whether or not the consumer has armed the bell.
func TestDoorbellCountsEveryRing(t *testing.T) {
	d := NewDoorbell()
	d.Ring() // awake
	if got := d.Posts(); got != 1 {
		t.Fatalf("Posts after an awake ring = %d, want 1", got)
	}
	d.Arm()
	d.Ring() // armed: wakes and counts
	if got := d.Posts(); got != 2 {
		t.Fatalf("Posts after an armed ring = %d, want 2", got)
	}
	if !d.Wait(time.Second) || d.Wakeups() != 1 {
		t.Fatalf("armed ring did not wake (Wakeups = %d)", d.Wakeups())
	}
	d.Ring() // awake again
	if got := d.Posts(); got != 3 || d.Wakeups() != 1 {
		t.Fatalf("Posts = %d, Wakeups = %d, want 3 and 1", got, d.Wakeups())
	}
}

// TestDoorbellWaitAllocatesNothing: an idle loop naps from 1 µs up, so a
// timed Wait must reuse the bell's timer, whether it times out or is rung.
func TestDoorbellWaitAllocatesNothing(t *testing.T) {
	d := NewDoorbell()
	if n := testing.AllocsPerRun(100, func() {
		d.Arm()
		if d.Wait(time.Microsecond) {
			t.Fatal("woke without a ring")
		}
	}); n != 0 {
		t.Fatalf("a Wait that times out: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		d.Arm()
		d.Ring()
		if !d.Wait(time.Second) {
			t.Fatal("a ring did not end the Wait")
		}
	}); n != 0 {
		t.Fatalf("a Wait a ring ends: %v allocations, want 0", n)
	}
}

// TestFullRingWakesProducer: a producer whose batch the ring cut short may
// stop polling with the remainder staged, so the consumer freeing space
// must ring the producer's bell.
func TestFullRingWakesProducer(t *testing.T) {
	prodBell, consBell := NewDoorbell(), NewDoorbell()
	prod, cons, err := NewDuplex(4, prodBell, consBell)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]msg.Req, 6)
	if n := prod.Out.SendBatch(batch); n != 4 {
		t.Fatalf("SendBatch into a depth-4 queue = %d, want 4", n)
	}
	prodBell.Arm()
	woke := make(chan bool)
	go func() { woke <- prodBell.Wait(time.Second) }()
	if n := cons.In.RecvBatch(make([]msg.Req, 1)); n != 1 {
		t.Fatalf("RecvBatch = %d, want 1", n)
	}
	if !<-woke {
		t.Fatal("freeing a full ring did not wake its producer within 1 s")
	}
	// The mark is taken once: draining further does not ring again.
	posts := prodBell.Posts()
	cons.In.RecvBatch(make([]msg.Req, 4))
	if got := prodBell.Posts(); got != posts {
		t.Fatalf("producer rung %d more times after the mark was taken", got-posts)
	}
}

func TestDoorbellArmRecheckProtocol(t *testing.T) {
	// Producer enqueues then rings; consumer arms then re-checks. Whatever
	// the interleaving, the consumer must observe the item without hanging.
	for i := 0; i < 200; i++ {
		d := NewDoorbell()
		out, in, _ := NewQueue(4, d)
		go out.Send(msg.Req{ID: 7})
		d.Arm()
		if _, ok := in.Recv(); ok {
			d.Disarm()
			continue
		}
		if !d.Wait(2 * time.Second) {
			t.Fatal("lost wakeup")
		}
		if _, ok := in.Recv(); !ok {
			// Ring can precede the enqueue becoming visible only through
			// the ring's own ordering; with our seq-cst atomics the item
			// must be there.
			t.Fatal("woke but queue empty")
		}
	}
}

func TestReqDBTrackComplete(t *testing.T) {
	db := NewReqDB()
	id := db.NewID()
	if id == 0 {
		t.Fatal("zero id")
	}
	db.Track(id, "ip", "payload", nil)
	if db.Len() != 1 || db.PendingTo("ip") != 1 {
		t.Fatal("track bookkeeping wrong")
	}
	data, ok := db.Complete(id)
	if !ok || data != "payload" {
		t.Fatalf("complete = %v, %v", data, ok)
	}
	if _, ok := db.Complete(id); ok {
		t.Fatal("double complete succeeded")
	}
	// Replies to unknown (pre-crash) IDs are ignored.
	if _, ok := db.Complete(9999); ok {
		t.Fatal("unknown id completed")
	}
}

func TestReqDBAbortDest(t *testing.T) {
	db := NewReqDB()
	var aborted []uint64
	for i := 0; i < 3; i++ {
		id := db.NewID()
		db.Track(id, "drv", i, func(id uint64, data any) {
			aborted = append(aborted, id)
		})
	}
	other := db.NewID()
	db.Track(other, "pf", nil, func(uint64, any) { t.Fatal("wrong dest aborted") })
	if n := db.AbortDest("drv"); n != 3 {
		t.Fatalf("aborted %d", n)
	}
	if len(aborted) != 3 {
		t.Fatalf("abort actions ran %d times", len(aborted))
	}
	for i := 1; i < len(aborted); i++ {
		if aborted[i] < aborted[i-1] {
			t.Fatal("abort order not deterministic")
		}
	}
	if db.Len() != 1 {
		t.Fatalf("len = %d, want 1 (pf request remains)", db.Len())
	}
}

func TestReqDBAbortActionMayResubmit(t *testing.T) {
	// The paper: "a server can also decide to reissue the request" — the
	// abort action tracks a fresh request with a new ID.
	db := NewReqDB()
	id := db.NewID()
	var resubmitted uint64
	db.Track(id, "drv", "pkt", func(_ uint64, data any) {
		nid := db.NewID()
		db.Track(nid, "drv", data, nil)
		resubmitted = nid
	})
	db.AbortDest("drv")
	if resubmitted == 0 {
		t.Fatal("no resubmission")
	}
	if data, ok := db.Lookup(resubmitted); !ok || data != "pkt" {
		t.Fatal("resubmitted request not tracked")
	}
}

func TestQuickReqDBConservation(t *testing.T) {
	// Property: IDs are unique; Complete removes exactly once; Len is the
	// number of tracked-but-not-completed requests.
	prop := func(completeMask []bool) bool {
		db := NewReqDB()
		ids := make([]uint64, len(completeMask))
		seen := make(map[uint64]bool)
		for i := range completeMask {
			ids[i] = db.NewID()
			if seen[ids[i]] {
				return false
			}
			seen[ids[i]] = true
			db.Track(ids[i], "x", i, nil)
		}
		want := len(completeMask)
		for i, c := range completeMask {
			if c {
				if _, ok := db.Complete(ids[i]); !ok {
					return false
				}
				want--
			}
		}
		return db.Len() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPublishGet(t *testing.T) {
	r := NewRegistry()
	a := r.Publish("tcp/sc", 42)
	if a.Gen != 1 {
		t.Fatalf("gen = %d", a.Gen)
	}
	got, ok := r.Get("tcp/sc")
	if !ok || got.Value != 42 {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	a2 := r.Publish("tcp/sc", 43)
	if a2.Gen != 2 {
		t.Fatalf("republish gen = %d", a2.Gen)
	}
}

func TestRegistrySubscribeReplayAndLive(t *testing.T) {
	r := NewRegistry()
	r.Publish("drv/eth0", "a")
	var mu sync.Mutex
	var got []Announcement
	cancel := r.Subscribe("drv/", func(a Announcement) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	})
	r.Publish("drv/eth1", "b")
	r.Publish("tcp/sc", "ignored")
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("got %d announcements, want 2 (1 replay + 1 live)", n)
	}
	cancel()
	r.Publish("drv/eth2", "c")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatal("subscription not cancelled")
	}
}

func TestRegistryWithdraw(t *testing.T) {
	r := NewRegistry()
	r.Publish("udp/sc", 1)
	var last Announcement
	r.Subscribe("udp/", func(a Announcement) { last = a })
	r.Withdraw("udp/sc")
	if _, ok := r.Get("udp/sc"); ok {
		t.Fatal("withdrawn key still present")
	}
	if last.Value != nil || last.Gen != 2 {
		t.Fatalf("withdraw notification = %+v", last)
	}
	// Re-publishing continues the generation sequence? A fresh publish
	// after withdraw starts at 1 again (entry removed); peers distinguish
	// incarnations by re-attachment, not by absolute generation.
	a := r.Publish("udp/sc", 2)
	if a.Gen != 1 {
		t.Fatalf("fresh publish gen = %d", a.Gen)
	}
}

func TestRegistryKeys(t *testing.T) {
	r := NewRegistry()
	r.Publish("drv/eth0", 0)
	r.Publish("drv/eth1", 0)
	r.Publish("ip/main", 0)
	if got := len(r.Keys("drv/")); got != 2 {
		t.Fatalf("Keys(drv/) = %d", got)
	}
	if got := len(r.Keys("")); got != 3 {
		t.Fatalf("Keys() = %d", got)
	}
}

func BenchmarkChannelSendRecv(b *testing.B) {
	out, in, _ := NewQueue(1024, NewDoorbell())
	b.ReportAllocs()
	var r msg.Req
	for i := 0; i < b.N; i++ {
		r.ID = uint64(i)
		out.Send(r)
		in.Recv()
	}
}

// BenchmarkChannelCrossCore measures asynchronous enqueue cost while a
// consumer on another core keeps draining — the paper's ~30-cycle number.
func BenchmarkChannelCrossCore(b *testing.B) {
	bell := NewDoorbell()
	out, in, _ := NewQueue(4096, bell)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := in.Recv(); !ok {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()
	b.ResetTimer()
	r := msg.Req{Op: msg.OpPing}
	for i := 0; i < b.N; i++ {
		for !out.Send(r) {
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func TestSendBatchRecvBatchFIFO(t *testing.T) {
	bell := NewDoorbell()
	out, in, err := NewQueue(64, bell)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]msg.Req, 10)
	for i := range batch {
		batch[i] = msg.Req{ID: uint64(i + 1), Op: msg.OpPing}
	}
	if n := out.SendBatch(batch); n != 10 {
		t.Fatalf("SendBatch = %d, want 10", n)
	}
	dst := make([]msg.Req, 4)
	want := uint64(1)
	for want <= 10 {
		n := in.RecvBatch(dst)
		if n == 0 {
			t.Fatalf("RecvBatch dried up at ID %d", want)
		}
		for _, r := range dst[:n] {
			if r.ID != want {
				t.Fatalf("got ID %d, want %d (FIFO broken)", r.ID, want)
			}
			want++
		}
	}
	if n := in.RecvBatch(dst); n != 0 {
		t.Fatalf("RecvBatch on empty queue = %d", n)
	}
}

func TestSendBatchPartialAcceptOnFullQueue(t *testing.T) {
	out, in, err := NewQueue(4, NewDoorbell())
	if err != nil {
		t.Fatal(err)
	}
	batch := []msg.Req{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}, {ID: 5}, {ID: 6}}
	if n := out.SendBatch(batch); n != 4 {
		t.Fatalf("SendBatch into depth-4 queue = %d, want 4", n)
	}
	if n := out.SendBatch(batch[4:]); n != 0 {
		t.Fatalf("SendBatch into full queue = %d, want 0", n)
	}
	if r, ok := in.Recv(); !ok || r.ID != 1 {
		t.Fatalf("Recv = (%+v,%v)", r, ok)
	}
	if n := out.SendBatch(batch[4:5]); n != 1 {
		t.Fatalf("SendBatch after drain = %d, want 1", n)
	}
}

// TestSendBatchCoalescesDoorbell is the doorbell contract: an armed
// consumer is woken exactly once per flushed batch, however many requests
// the batch carries.
func TestSendBatchCoalescesDoorbell(t *testing.T) {
	bell := NewDoorbell()
	out, in, err := NewQueue(256, bell)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]msg.Req, 64)
	for i := range batch {
		batch[i] = msg.Req{ID: uint64(i + 1), Op: msg.OpPing}
	}

	for round := uint64(1); round <= 3; round++ {
		// Arm from the test goroutine: the queue is known-drained here, so
		// the arm-then-recheck protocol is trivially satisfied and the
		// batch below is guaranteed to land on an armed bell. Whether the
		// ring fires before or after Wait blocks, the wake token makes
		// Wait return true — no timing dependence.
		bell.Arm()
		if !in.Empty() {
			t.Fatal("queue not drained between rounds")
		}
		woke := make(chan bool)
		go func() { woke <- bell.Wait(2 * time.Second) }()
		if n := out.SendBatch(batch); n != len(batch) {
			t.Fatalf("SendBatch = %d, want %d", n, len(batch))
		}
		if !<-woke {
			t.Fatal("armed consumer was not woken by the batch")
		}
		if got := bell.Wakeups(); got != round {
			t.Fatalf("Wakeups after %d batches of %d = %d, want %d (one ring per batch)",
				round, len(batch), got, round)
		}
		dst := make([]msg.Req, len(batch))
		for got := 0; got < len(batch); {
			got += in.RecvBatch(dst)
		}
	}
}

func TestBatchCountersObserveTraffic(t *testing.T) {
	out, in, err := NewQueue(64, NewDoorbell())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]msg.Req, 8)
	out.SendBatch(batch)
	out.SendBatch(batch[:3])
	// Per-slot Send is deliberately unobserved (cycle-counted path).
	out.Send(msg.Req{ID: 12})
	if got := out.Stats().Msgs(); got != 11 {
		t.Fatalf("send Msgs = %d, want 11", got)
	}
	if got := out.Stats().Batches(); got != 2 {
		t.Fatalf("send Batches = %d, want 2", got)
	}
	if got := out.Stats().Max(); got != 8 {
		t.Fatalf("send Max = %d, want 8", got)
	}
	dst := make([]msg.Req, 16)
	in.RecvBatch(dst)
	if got := in.Stats().Msgs(); got != 12 {
		t.Fatalf("recv Msgs = %d, want 12", got)
	}
	if got := in.Stats().Batches(); got != 1 {
		t.Fatalf("recv Batches = %d, want 1", got)
	}
}

// TestShortChainAfterLongThroughOneSlot: a slot is written by the used
// bytes of a request, so a request with a short chain, written after a
// longer one through the same slot, must still arrive with zero Ptrs past
// its NPtr, equal to the request written.
func TestShortChainAfterLongThroughOneSlot(t *testing.T) {
	out, in, err := NewQueue(2, NewDoorbell())
	if err != nil {
		t.Fatal(err)
	}
	chain := func(id uint64, n int) msg.Req {
		r := msg.Req{ID: id, Op: msg.OpTxSubmit, Flow: 9, Arg: [4]uint64{id, 2, 3, 4}}
		for i := 0; i < n; i++ {
			r.AppendChain(shm.RichPtr{Pool: shm.PoolID(id), Off: uint32(i), Len: 100})
		}
		return r
	}
	// Three laps of the two slots: each slot is written with the longest
	// chain, then a shorter one, then none.
	id := uint64(0)
	for _, n := range []int{msg.MaxPtrs, msg.MaxPtrs, 3, 1, 0, 0} {
		id++
		sent := chain(id, n)
		if w := out.Write(0, []msg.Req{sent}); w != 1 {
			t.Fatalf("request %d: Write = %d", id, w)
		}
		out.Publish(1)
		got := in.View(4)
		if len(got) != 1 || got[0] != sent {
			t.Fatalf("request %d (chain %d) arrived as %+v", id, n, got)
		}
		in.Done(1)
	}
}
