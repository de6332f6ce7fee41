package wiring

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/shm"
)

// Take is the tests' two-value view of take: it adopts a pending rebind and
// returns the duplex held afterwards.
func (p *Port) Take() (channel.Duplex, bool) {
	cur, gen := p.held()
	if d, _, changed := p.take(gen); changed {
		return d, true
	}
	return cur, false
}

// edgeRig is one exported/attached edge seen from the creator ("ip"), with
// the test playing the attacher ("tcp") and its reincarnations.
type edgeRig struct {
	t        *testing.T
	ipSide   *Port
	edge     *Edge
	tcpPorts *Ports
	peer     channel.Duplex // the live tcp incarnation's end
	scratch  []msg.Req      // what recvd copies out of the peer's queue
	nextID   uint64         // last ID staged
	lastRecv uint64         // last ID the peer received (FIFO check)
	restarts int            // restart-hook calls
}

func newEdgeRig(t *testing.T, depth int) *edgeRig {
	t.Helper()
	hub := newHub()
	ipPorts := NewPorts(hub, "ip")
	if depth > 0 {
		ipPorts.SetDepth(depth)
	}
	ipPorts.Begin(channel.NewDoorbell())
	r := &edgeRig{
		t: t, ipSide: ipPorts.Export("ip-tcp", "tcp"), tcpPorts: NewPorts(hub, "tcp"),
		scratch: make([]msg.Req, burst),
	}
	r.reincarnatePeer()
	r.edge = NewEdge(r.ipSide)
	if !r.intake() || r.restarts != 1 {
		t.Fatal("first Intake after wiring must report the rebind")
	}
	r.restarts = 0
	return r
}

// reincarnatePeer starts a new tcp incarnation: a fresh duplex is created
// and the creator's port generation advances.
func (r *edgeRig) reincarnatePeer() {
	r.t.Helper()
	r.tcpPorts.Begin(channel.NewDoorbell())
	d, changed := r.tcpPorts.Attach("ip-tcp").Take()
	if !changed || !d.Valid() {
		r.t.Fatal("peer incarnation not wired")
	}
	r.peer = d
}

func (r *edgeRig) intake() bool {
	return r.edge.Intake(func() { r.restarts++ }, func([]msg.Req) {})
}

func (r *edgeRig) push(n int) {
	for i := 0; i < n; i++ {
		r.nextID++
		r.edge.Push(msg.Req{ID: r.nextID})
	}
}

// recvd counts what the live peer incarnation received since the last
// check, failing on any reordering.
func (r *edgeRig) recvd() int {
	r.t.Helper()
	total := 0
	for {
		n := r.peer.In.RecvBatch(r.scratch)
		if n == 0 {
			return total
		}
		for _, m := range r.scratch[:n] {
			if m.ID <= r.lastRecv {
				r.t.Fatalf("request %d delivered after %d (FIFO broken)", m.ID, r.lastRecv)
			}
			r.lastRecv = m.ID
		}
		total += n
	}
}

// step is one scripted moment in an edge's life; the set fields happen in
// declaration order.
type step struct {
	rebind    bool // the peer reincarnates
	successor bool // a live-handoff successor takes over the port with a fresh Edge
	intake    bool // the owner runs Intake
	push      int  // the owner stages this many requests
	flush     bool // the owner runs Flush
	want      int  // requests the live peer incarnation holds after the step
}

// burst is a full batch: as many requests as a loop once drained per
// RecvBatch into its scratch buffer.
const burst = 256

func repeat(s step, n int) []step {
	out := make([]step, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestEdge scripts the whole edge contract against real Ports and channel
// queues: staging and FIFO delivery, refusal, and the restart rule.
func TestEdge(t *testing.T) {
	cases := []struct {
		name     string
		depth    int // queue depth; 0 = channel.DefaultDepth
		steps    []step
		staged   int    // left staged at the end
		dropped  uint64 // Dropped() at the end
		restarts int    // restart-hook calls
		check    func(t *testing.T, r *edgeRig)
	}{
		{
			name:  "an iteration's pushes leave FIFO in one batch, one doorbell",
			steps: []step{{push: 2}, {push: 1, flush: true, want: 3}},
			check: func(t *testing.T, r *edgeRig) {
				if got := r.peer.In.Stats().Batches(); got != 1 {
					t.Fatalf("recv batches = %d, want 1 (flush must coalesce)", got)
				}
			},
		},
		{
			name:  "what the queue refuses stays staged and leaves next, in order",
			depth: 4,
			steps: []step{{push: 6, flush: true, want: 4}, {flush: true, want: 2}},
		},
		{
			// The restart rule: requests staged for incarnation N must never
			// reach N+1 — recovery regenerates whatever still matters, and
			// stale requests would corrupt the new incarnation's protocol
			// state. One reincarnation between two iterations is one drop
			// and one hook call, however often the owner polls afterwards.
			name: "peer reincarnates between two iterations: one drop, one restart hook, nothing stale delivered",
			steps: []step{
				{push: 2},
				{rebind: true, intake: true, flush: true, want: 0},
				{intake: true, flush: true, want: 0},
				{push: 1, flush: true, want: 1}, // fresh traffic flows to the new incarnation
			},
			dropped: 2, restarts: 1,
		},
		{
			name: "Flush before the owner adopts the rebind drops, and delivers nothing to the old duplex",
			steps: []step{
				{push: 2},
				{rebind: true, flush: true, want: 0},
				{push: 1, flush: true, want: 0}, // still computed against the dead duplex
				{intake: true, push: 1, flush: true, want: 1},
			},
			dropped: 3, restarts: 1,
		},
		{
			name:    "rebind lands between Intake and Push: the batch was produced for the duplex still held",
			steps:   []step{{rebind: true, push: 1, flush: true, want: 0}},
			dropped: 1,
		},
		{
			name: "a live-handoff successor carries on mid-generation: no rebind seen, pre-Intake staging delivered",
			steps: []step{
				{successor: true, push: 2},
				{intake: true, flush: true, want: 2},
			},
		},
		{
			name:  "latency mode: every opportunity flushes, even one request on a busy loop",
			steps: repeat(step{push: 1, flush: true, want: 1}, 5),
			check: func(t *testing.T, r *edgeRig) {
				if got := r.peer.In.Stats().Batches(); got != 5 {
					t.Fatalf("recv batches = %d, want 5 (one per Flush)", got)
				}
			},
		},
		{
			name: "after a burst of full batches, a small batch leaves in the same iteration",
			steps: append(repeat(step{push: burst, flush: true, want: burst}, 4),
				step{push: 3, flush: true, want: 3}),
		},
		{
			name:  "nothing staged: no flush even when idle",
			steps: []step{{flush: true, want: 0}},
		},
		{
			name:    "a held batch is dropped the moment its peer reincarnates, never delivered late",
			depth:   4,
			steps:   []step{{push: 7, flush: true, want: 4}, {rebind: true, flush: true, want: 0}},
			dropped: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newEdgeRig(t, tc.depth)
			for i, s := range tc.steps {
				if s.rebind {
					r.reincarnatePeer()
				}
				if s.successor {
					r.edge = NewEdge(r.ipSide)
				}
				if s.intake {
					r.intake()
				}
				r.push(s.push)
				if s.flush {
					if moved := r.edge.Flush(); moved != (s.want > 0) {
						t.Fatalf("step %d: Flush = %v, want %v", i, moved, s.want > 0)
					}
				}
				if got := r.recvd(); got != s.want {
					t.Fatalf("step %d: peer received %d, want %d", i, got, s.want)
				}
			}
			if r.edge.written+len(r.edge.q) != tc.staged || r.edge.Dropped() != tc.dropped || r.restarts != tc.restarts {
				t.Fatalf("staged=%d dropped=%d restarts=%d, want %d/%d/%d",
					r.edge.written+len(r.edge.q), r.edge.Dropped(), r.restarts, tc.staged, tc.dropped, tc.restarts)
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// pushOnce is a server whose first Poll pushes one request onto its edge
// and, when flush is set, flushes it; every later Poll finds nothing.
type pushOnce struct {
	ports  *Ports
	edge   *Edge
	flush  bool
	pushed bool
}

func (s *pushOnce) Init(rt *proc.Runtime, restart bool) error {
	s.ports.Begin(rt.Bell)
	s.edge = NewEdge(s.ports.Attach("sc-pf"))
	return nil
}

func (s *pushOnce) Poll(time.Time) bool {
	if s.pushed {
		return false
	}
	s.pushed = true
	s.edge.Push(msg.Req{ID: 1})
	if s.flush {
		s.edge.Flush()
	}
	return true
}

func (s *pushOnce) Deadline(time.Time) time.Time { return time.Time{} }
func (s *pushOnce) Stop()                        {}

// TestUnflushedPushIsCounted: a Poll that pushes onto an edge and returns
// without flushing it breaks the doorbell contract, and the runner counts
// the empty Poll after it, naming the component and the edge. A Poll that
// flushes what it pushes is not counted, wired peer or not.
func TestUnflushedPushIsCounted(t *testing.T) {
	for _, flush := range []bool{false, true} {
		ports := NewPorts(newHub(), "pf")
		p := proc.New("pf", func() proc.Service { return &pushOnce{ports: ports, flush: flush} }, nil)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		for end := time.Now().Add(5 * time.Second); p.Polls() < 2; {
			if time.Now().After(end) {
				t.Fatalf("flush=%v: %d Polls in 5 s, want the pushing one and an empty one", flush, p.Polls())
			}
			time.Sleep(time.Millisecond)
		}
		p.Shutdown()
		n, edges := p.Unflushed()
		if flush && n != 0 {
			t.Errorf("flushed push: Unflushed = %d %v, want 0", n, edges)
		}
		if !flush && (n == 0 || !slices.Equal(edges, []string{"pf:sc-pf"})) {
			t.Errorf("unflushed push: Unflushed = %d %v, want at least 1 naming [pf:sc-pf]", n, edges)
		}
	}
}

// TestDroppedIsReadWhileTheLoopDrops: a DropReporter reads an edge's drop
// count from another goroutine while the owning loop drops. Under -race a
// count written with sync/atomic and read plainly (or the reverse) fails
// here on every run, not only when a node's start-up happens to interleave
// that way.
func TestDroppedIsReadWhileTheLoopDrops(t *testing.T) {
	r := newEdgeRig(t, 0)
	const n = 1000
	read := make(chan struct{})
	go func() {
		defer close(read)
		for i := 0; i < n; i++ {
			_ = r.edge.Dropped()
		}
	}()
	for i := 0; i < n; i++ {
		r.push(1)
		r.edge.Drop()
	}
	<-read
	if got := r.edge.Dropped(); got != n {
		t.Fatalf("Dropped = %d, want %d", got, n)
	}
}

// edgePair wires ip's and tcp's ends of one edge, each an Edge, and runs
// the first Intake on both, so what either pushes next is written in place.
func edgePair(t *testing.T, depth int) (ip, tcp *Edge) {
	t.Helper()
	hub := newHub()
	ipPorts, tcpPorts := NewPorts(hub, "ip"), NewPorts(hub, "tcp")
	if depth > 0 {
		ipPorts.SetDepth(depth)
	}
	ipPorts.Begin(channel.NewDoorbell())
	ipPort := ipPorts.Export("ip-tcp", "tcp")
	tcpPorts.Begin(channel.NewDoorbell())
	ip, tcp = NewEdge(ipPort), NewEdge(tcpPorts.Attach("ip-tcp"))
	nop := func([]msg.Req) {}
	if !ip.Intake(nil, nop) || !tcp.Intake(nil, nop) {
		t.Fatal("edge not wired")
	}
	return ip, tcp
}

// stressReq is request id of TestEdgeInPlaceStress: every field set from
// id, and a chain whose length cycles through 0..MaxPtrs, so each slot is
// rewritten with longer and shorter chains.
func stressReq(id uint64) msg.Req {
	r := msg.Req{ID: id, Op: msg.Op(id % 7), Status: int32(id), Flow: uint32(3 * id),
		Arg: [4]uint64{id, ^id, id << 7, id >> 3}}
	for i := uint64(0); i < id%(msg.MaxPtrs+1); i++ {
		r.AppendChain(shm.RichPtr{Pool: shm.PoolID(id), Off: uint32(id + i), Len: uint32(i + 1)})
	}
	return r
}

// TestEdgeInPlaceStress: a producer pushes and flushes through its Edge
// while a consumer on another goroutine takes the batches in place through
// its Intake, yielding inside handle so the producer writes the free slots
// around the run it holds. Every request arrives once, in order, equal to
// the request pushed. Run it under -race: the producer's writes and the
// consumer's reads of one slot must be ordered by Publish and Done.
func TestEdgeInPlaceStress(t *testing.T) {
	total := uint64(20000)
	if testing.Short() {
		total = 2000
	}
	ip, tcp := edgePair(t, 64)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for next := uint64(1); next <= total && !stop.Load(); {
			for n := 1 + next%37; n > 0 && next <= total; n-- {
				ip.Push(stressReq(next))
				next++
			}
			ip.Flush()
			runtime.Gosched()
		}
		for ip.written+len(ip.q) > 0 && !stop.Load() {
			ip.Flush()
			runtime.Gosched()
		}
	}()
	defer func() { stop.Store(true); <-done }()
	want := uint64(1)
	handle := func(b []msg.Req) {
		for i := range b {
			if b[i] != stressReq(want) {
				t.Fatalf("request %d arrived as %+v", want, b[i])
			}
			want++
		}
		runtime.Gosched()
	}
	for deadline := time.Now().Add(time.Minute); want <= total; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests arrived in a minute", want-1, total)
		}
		if !tcp.Intake(nil, handle) {
			runtime.Gosched()
		}
	}
	<-done
	if tcp.Intake(nil, func(b []msg.Req) { t.Fatalf("%d requests past the last", len(b)) }) {
		t.Fatal("Intake worked on a drained edge")
	}
}

// TestEdgeCycleAllocatesNothing: a steady Push → Flush → Intake cycle
// allocates nothing.
func TestEdgeCycleAllocatesNothing(t *testing.T) {
	ip, tcp := edgePair(t, 0)
	batch := make([]msg.Req, 32)
	got := 0
	handle := func(b []msg.Req) { got += len(b) }
	if n := testing.AllocsPerRun(100, func() {
		ip.Push(batch...)
		ip.Flush()
		tcp.Intake(nil, handle)
	}); n != 0 {
		t.Fatalf("a Push → Flush → Intake cycle allocates %v", n)
	}
	if got != 101*len(batch) {
		t.Fatalf("consumer took %d requests, want %d", got, 101*len(batch))
	}
}

// TestTakeStagedCopiesOutWrittenSlots: what a Push wrote into the queue
// and no Flush published comes back from TakeStaged, in order, ahead of
// what the queue had no room for; the peer never sees it, and the next
// Push writes the abandoned slots again.
func TestTakeStagedCopiesOutWrittenSlots(t *testing.T) {
	r := newEdgeRig(t, 4)
	r.push(6) // 4 written in place, 2 staged
	got := r.edge.TakeStaged()
	if len(got) != 6 {
		t.Fatalf("TakeStaged returned %d requests, want 6", len(got))
	}
	for i, m := range got {
		if m.ID != uint64(i+1) {
			t.Fatalf("TakeStaged[%d] = request %d, want %d", i, m.ID, i+1)
		}
	}
	if r.edge.Flush() || r.recvd() != 0 {
		t.Fatal("taken requests reached the peer")
	}
	r.lastRecv = 6
	r.push(2)
	if !r.edge.Flush() || r.recvd() != 2 || r.edge.Dropped() != 0 {
		t.Fatalf("after TakeStaged: peer got up to %d, dropped %d", r.lastRecv, r.edge.Dropped())
	}
}
