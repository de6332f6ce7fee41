package transport

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/pfeng"
	"newtos/internal/proc"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/wiring"
)

// fakeEngine is a scripted Engine: the test queues its output and reads
// back what the shell fed it.
type fakeEngine struct {
	toIP, toFront     []msg.Req
	fromIP, fromFront []uint64
	ipRestarts        int
	frontRestarts     int
	handoffIn         []byte
	restoreErr        error
}

func (f *fakeEngine) FromIP(r msg.Req, _ time.Time)    { f.fromIP = append(f.fromIP, r.ID) }
func (f *fakeEngine) FromFront(r msg.Req, _ time.Time) { f.fromFront = append(f.fromFront, r.ID) }
func (f *fakeEngine) Tick(time.Time)                   {}
func (f *fakeEngine) OnIPRestart()                     { f.ipRestarts++ }
func (f *fakeEngine) OnFrontRestart()                  { f.frontRestarts++ }
func (f *fakeEngine) Deadline(time.Time) time.Time     { return time.Time{} }
func (f *fakeEngine) Flows() []pfeng.Flow              { return nil }
func (f *fakeEngine) SaveState() ([]byte, error)       { return nil, nil }

func (f *fakeEngine) DrainToIP() []msg.Req {
	out := f.toIP
	f.toIP = nil
	return out
}

func (f *fakeEngine) DrainToFront() []msg.Req {
	out := f.toFront
	f.toFront = nil
	return out
}

func (f *fakeEngine) HandoffState() ([]byte, map[uint32]*sockbuf.Buf, error) {
	return []byte("engine-state"), nil, nil
}

func (f *fakeEngine) Restore(blob []byte, _ map[uint32]*sockbuf.Buf, _ time.Time) error {
	f.handoffIn = blob
	return f.restoreErr
}

// neighbour plays one of the server's peers (IP or the SYSCALL server): the
// creator of an edge with a deliberately tiny queue, so the server's output
// backs up into its staging queue.
type neighbour struct {
	ports *wiring.Ports
	edge  string
	end   *wiring.Edge
	got   []uint64
}

const queueDepth = 2

func newNeighbour(hub *wiring.Hub, name, edge string) *neighbour {
	n := &neighbour{ports: wiring.NewPorts(hub, name), edge: edge}
	n.ports.SetDepth(queueDepth)
	n.reincarnate()
	return n
}

// reincarnate restarts the neighbour: its re-export replaces the duplex and
// advances the server's port generation.
func (n *neighbour) reincarnate() {
	n.ports.Begin(channel.NewDoorbell())
	n.end = wiring.NewEdge(n.ports.Export(n.edge, "x"))
	n.got = nil
}

// drain collects what the server delivered to this incarnation.
func (n *neighbour) drain() {
	n.end.Intake(make([]msg.Req, wiring.ScratchLen), nil, func(b []msg.Req) {
		for _, r := range b {
			n.got = append(n.got, r.ID)
		}
	})
}

type rig struct {
	t      *testing.T
	hub    *wiring.Hub
	ports  *wiring.Ports
	bell   *channel.Doorbell
	ip, sc *neighbour
	now    time.Time
}

func newRig(t *testing.T) *rig {
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	return &rig{
		t: t, hub: hub, ports: wiring.NewPorts(hub, "x"), bell: channel.NewDoorbell(),
		ip: newNeighbour(hub, "ip", "ip-x"), sc: newNeighbour(hub, "sc", "sc-x"),
		now: time.Unix(0, 0),
	}
}

// start boots one incarnation of the server around eng; handoff is what its
// predecessor's HandoffState returned (nil for a fresh start).
func (r *rig) start(eng *fakeEngine, handoff any) (*Server[*fakeEngine], error) {
	s := New(Spec[*fakeEngine]{
		Name: "fakesrv", HdrPool: "fake.hdr", HdrChunks: 8,
		IPEdge: "ip-x", SCEdge: "sc-x",
		StorageKey: "fake/sockets", FlowsKey: "fake/flows", BufKeyPfx: "sockbuf/fake/",
		New: func(Env, *shm.Pool) (*fakeEngine, Engine) { return eng, eng },
	}, r.ports)
	return s, s.Init(&proc.Runtime{Bell: r.bell, Incarnation: 1, Handoff: handoff}, false)
}

// poll runs one server iteration and lets both neighbours drain.
func (r *rig) poll(s *Server[*fakeEngine]) {
	r.now = r.now.Add(time.Millisecond)
	s.Poll(r.now)
	r.ip.drain()
	r.sc.drain()
}

func ids(from, to uint64) []msg.Req {
	var out []msg.Req
	for id := from; id <= to; id++ {
		out = append(out, msg.Req{ID: id})
	}
	return out
}

func wantIDs(t *testing.T, what string, got []uint64, from, to uint64) {
	t.Helper()
	var want []uint64
	for id := from; id <= to; id++ {
		want = append(want, id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// TestPeerReincarnationBetweenPolls: whichever neighbour restarts between
// two iterations, the batch staged for its dead incarnation is dropped
// once, that edge's restart hook runs once, the other edge is untouched,
// and the new incarnation sees only what was produced for it.
func TestPeerReincarnationBetweenPolls(t *testing.T) {
	cases := []struct {
		name      string
		restartIP bool
	}{
		{"IP restarts", true},
		{"SYSCALL server restarts", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			eng := &fakeEngine{}
			s, err := r.start(eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.poll(s) // first wiring: a rebind like any other
			if eng.ipRestarts != 1 || eng.frontRestarts != 1 {
				t.Fatalf("hooks after wiring: ip=%d front=%d, want 1/1", eng.ipRestarts, eng.frontRestarts)
			}

			// Five requests against a two-slot queue that nobody drains
			// before the restart: three stay staged on each edge.
			eng.toIP, eng.toFront = ids(1, 5), ids(1, 5)
			r.now = r.now.Add(time.Millisecond)
			s.Poll(r.now)
			dead, live := r.ip, r.sc
			if !tc.restartIP {
				dead, live = r.sc, r.ip
			}
			dead.reincarnate()

			eng.toIP, eng.toFront = ids(6, 6), ids(6, 6)
			for i := 0; i < 4; i++ {
				r.poll(s)
			}
			wantIDs(t, "new incarnation received", dead.got, 6, 6)
			wantIDs(t, "surviving neighbour received", live.got, 1, 6)
			if got := s.OutboxDropped(); got != 3 {
				t.Fatalf("OutboxDropped = %d, want 3", got)
			}
			wantIP, wantFront := 2, 1
			if !tc.restartIP {
				wantIP, wantFront = 1, 2
			}
			if eng.ipRestarts != wantIP || eng.frontRestarts != wantFront {
				t.Fatalf("hooks: ip=%d front=%d, want %d/%d", eng.ipRestarts, eng.frontRestarts, wantIP, wantFront)
			}
		})
	}
}

// TestHandoffRoundTrip: what the queues refused at the swap rides the
// payload and leaves first, in order, from the successor — which inherits
// the header pool and the wiring without any peer seeing a rebind.
func TestHandoffRoundTrip(t *testing.T) {
	r := newRig(t)
	old := &fakeEngine{}
	a, err := r.start(old, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.poll(a)

	old.toIP, old.toFront = ids(1, 5), ids(11, 14)
	r.now = r.now.Add(time.Millisecond)
	a.Poll(r.now)                                  // two of each fit the queues
	old.toIP, old.toFront = ids(6, 6), ids(15, 15) // produced during the drain rounds
	state, err := a.HandoffState()
	if err != nil {
		t.Fatal(err)
	}
	p := state.(*Payload)
	if len(p.ToIP) != 4 || p.ToIP[0].ID != 3 || len(p.ToSC) != 3 || p.ToSC[0].ID != 13 {
		t.Fatalf("payload carries ToIP=%v ToSC=%v", p.ToIP, p.ToSC)
	}

	succ := &fakeEngine{toIP: ids(7, 7), toFront: ids(16, 16)}
	b, err := r.start(succ, state)
	if err != nil {
		t.Fatal(err)
	}
	if string(succ.handoffIn) != "engine-state" || b.hdrPool != a.hdrPool {
		t.Fatalf("successor restored %q over pool %p, want the predecessor's blob and pool %p", succ.handoffIn, b.hdrPool, a.hdrPool)
	}
	for i := 0; i < 4; i++ {
		r.poll(b)
	}
	wantIDs(t, "IP received", r.ip.got, 1, 7)
	wantIDs(t, "SYSCALL server received", r.sc.got, 11, 16)
	if succ.ipRestarts != 0 || succ.frontRestarts != 0 || b.OutboxDropped() != 0 {
		t.Fatalf("successor saw a rebind: ip=%d front=%d dropped=%d", succ.ipRestarts, succ.frontRestarts, b.OutboxDropped())
	}
}

// TestUnusableHandoffFailsInit: a successor handed something it cannot
// adopt reports it from Init (proc then falls back to a restart) instead of
// panicking on the loop.
func TestUnusableHandoffFailsInit(t *testing.T) {
	r := newRig(t)
	pool, err := r.hub.Space.NewPool("some.hdr", 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		handoff any
		eng     *fakeEngine
		want    string
	}{
		{"not a payload", "garbage", &fakeEngine{}, "unusable handoff payload string"},
		{"no header pool handle", &Payload{}, &fakeEngine{}, "unusable handoff payload"},
		{
			"engine rejects the blob", &Payload{Handles: Handles{HdrPool: pool}},
			&fakeEngine{restoreErr: errors.New("missing TX buffer handle")}, "missing TX buffer handle",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := r.start(tc.eng, tc.handoff)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "fakesrv: ") {
				t.Fatalf("Init = %v, want a fakesrv error containing %q", err, tc.want)
			}
		})
	}
}
