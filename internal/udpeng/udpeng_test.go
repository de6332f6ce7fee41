package udpeng

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

type harness struct {
	t     testing.TB
	space *shm.Space
	e     *Engine
	bufs  map[uint32]*sockbuf.Buf
	saved [][]byte
	rx    *shm.Pool
	next  uint64
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	space := shm.NewSpace()
	hdr, err := space.NewPool("udp.hdr", 128, 256)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := space.NewPool("rx", 2048, 256)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, space: space, rx: rx, bufs: make(map[uint32]*sockbuf.Buf)}
	h.e = New(Config{
		Space:      space,
		LocalIP:    netpkt.MustIP("10.0.0.1"),
		PublishBuf: func(s uint32, b *sockbuf.Buf) { h.bufs[s] = b },
		SaveState:  func(b []byte) { h.saved = append(h.saved, b) },
	}, hdr)
	return h
}

func (h *harness) call(r msg.Req) msg.Req {
	h.t.Helper()
	h.next++
	r.ID = h.next
	h.e.FromFront(r)
	for _, rep := range h.e.DrainToFront() {
		if rep.ID == r.ID {
			return rep
		}
	}
	h.t.Fatalf("no synchronous reply to %v", r.Op)
	return msg.Req{}
}

func (h *harness) socket() uint32 {
	h.t.Helper()
	rep := h.call(msg.Req{Op: msg.OpSockCreate})
	if rep.Status != msg.StatusOK {
		h.t.Fatalf("create: %d", rep.Status)
	}
	return rep.Flow
}

func (h *harness) bind(sock uint32, port uint16) int32 {
	r := msg.Req{Op: msg.OpSockBind, Flow: sock}
	r.Arg[0] = uint64(port)
	return h.call(r).Status
}

// nonblocking switches a socket to nonblocking mode and drops the entry
// announcement.
func (h *harness) nonblocking(sock uint32) {
	h.t.Helper()
	r := msg.Req{Op: msg.OpSockSetFlags, Flow: sock}
	r.Arg[0] = msg.SockNonblock
	if rep := h.call(r); rep.Status != msg.StatusOK {
		h.t.Fatalf("setflags: %d", rep.Status)
	}
}

// eventBits ors the readiness events reqs carry for sock.
func eventBits(reqs []msg.Req, sock uint32) uint64 {
	var bits uint64
	for _, r := range reqs {
		if r.Op == msg.OpSockEvent && r.Flow == sock {
			bits |= r.Arg[0]
		}
	}
	return bits
}

// deliver injects a UDP datagram as IP would.
func (h *harness) deliver(srcIP netpkt.IPAddr, srcPort, dstPort uint16, payload []byte) uint64 {
	h.t.Helper()
	ptr, buf, err := h.rx.Alloc()
	if err != nil {
		h.t.Fatal(err)
	}
	uh := netpkt.UDPHeader{SrcPort: srcPort, DstPort: dstPort, Length: uint16(8 + len(payload))}
	uh.Marshal(buf)
	copy(buf[8:], payload)
	h.next++
	id := h.next
	req := msg.Req{ID: id, Op: msg.OpIPDeliver}
	req.SetChain([]shm.RichPtr{ptr.Slice(0, uint32(8+len(payload)))})
	req.Arg[1] = uint64(srcIP.U32())
	h.e.FromIP(req)
	return id
}

func TestCreateBindSendFlow(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	if st := h.bind(sock, 5000); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	// Duplicate bind fails.
	other := h.socket()
	if st := h.bind(other, 5000); st != msg.StatusErrInUse {
		t.Fatalf("dup bind: %d", st)
	}

	// Send a datagram.
	buf := h.bufs[sock]
	chunk, ok := buf.Get()
	if !ok {
		t.Fatal("no free chunk")
	}
	ptr, err := buf.Write(chunk, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	r := msg.Req{Op: msg.OpSockSend, Flow: sock}
	r.SetChain([]shm.RichPtr{ptr})
	r.Arg[0] = uint64(netpkt.MustIP("10.0.0.2").U32())
	r.Arg[1] = 53
	h.next++
	r.ID = h.next
	sendID := r.ID
	h.e.FromFront(r)

	toIP := h.e.DrainToIP()
	if len(toIP) != 1 || toIP[0].Op != msg.OpIPSend {
		t.Fatalf("toIP = %+v", toIP)
	}
	ipReq := toIP[0]
	if ipReq.Arg[0] != uint64(netpkt.ProtoUDP) {
		t.Fatal("wrong proto")
	}
	// Check the wire bytes: header + payload.
	pkt, err := netpkt.Resolve(h.space, ipReq.Chain())
	if err != nil {
		t.Fatal(err)
	}
	flat := pkt.Bytes()
	uh, err := netpkt.ParseUDP(flat)
	if err != nil {
		t.Fatal(err)
	}
	if uh.DstPort != 53 || uh.SrcPort != 5000 || string(flat[8:]) != "query" {
		t.Fatalf("wire = %+v %q", uh, flat[8:])
	}
	// Software checksum must verify.
	if !netpkt.VerifyTransportChecksum(netpkt.MustIP("10.0.0.1"), netpkt.MustIP("10.0.0.2"), netpkt.ProtoUDP, flat) {
		t.Fatal("bad software checksum")
	}

	// Completion frees header, recycles payload, replies to app.
	freeBefore := buf.Free()
	h.e.FromIP(msg.Req{ID: ipReq.ID, Op: msg.OpIPSendDone, Status: msg.StatusOK})
	reps := h.e.DrainToFront()
	if len(reps) != 1 || reps[0].ID != sendID || reps[0].Status != msg.StatusOK {
		t.Fatalf("send reply = %+v", reps)
	}
	if buf.Free() != freeBefore+1 {
		t.Fatal("payload chunk not recycled")
	}
}

func TestReceiveDeliversQueuedAndParked(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	h.bind(sock, 6000)
	src := netpkt.MustIP("10.0.0.9")

	// Data first, recv second.
	h.deliver(src, 1234, 6000, []byte("hello"))
	h.next++
	recv := msg.Req{ID: h.next, Op: msg.OpSockRecv, Flow: sock}
	h.e.FromFront(recv)
	reps := h.e.DrainToFront()
	if len(reps) != 1 || reps[0].Op != msg.OpSockRecvData {
		t.Fatalf("reps = %+v", reps)
	}
	v, err := h.space.View(reps[0].Ptrs[0])
	if err != nil || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("payload = %q, %v", v, err)
	}
	if netpkt.IPFromU32(uint32(reps[0].Arg[0])) != src || reps[0].Arg[1] != 1234 {
		t.Fatal("source meta wrong")
	}
	// Recv-done releases the IP buffer.
	done := msg.Req{Op: msg.OpSockRecvDone, Flow: sock}
	done.Arg[0] = reps[0].Arg[2]
	h.e.FromFront(done)
	toIP := h.e.DrainToIP()
	if len(toIP) != 1 || toIP[0].Op != msg.OpIPDeliverDone {
		t.Fatalf("release = %+v", toIP)
	}

	// Recv first (parks), data second.
	h.next++
	recv2 := msg.Req{ID: h.next, Op: msg.OpSockRecv, Flow: sock}
	h.e.FromFront(recv2)
	if reps := h.e.DrainToFront(); len(reps) != 0 {
		t.Fatalf("parked recv replied early: %+v", reps)
	}
	h.deliver(src, 1234, 6000, []byte("later"))
	reps = h.e.DrainToFront()
	if len(reps) != 1 || reps[0].ID != recv2.ID {
		t.Fatalf("parked recv reply = %+v", reps)
	}
}

func TestDeliverToUnknownPortDropsAndReleases(t *testing.T) {
	h := newHarness(t)
	id := h.deliver(netpkt.MustIP("1.2.3.4"), 1, 4242, []byte("noone"))
	toIP := h.e.DrainToIP()
	if len(toIP) != 1 || toIP[0].Op != msg.OpIPDeliverDone || toIP[0].ID != id {
		t.Fatalf("release = %+v", toIP)
	}
	if h.e.Stats().DroppedNoSocket != 1 {
		t.Fatal("drop not counted")
	}
}

func TestRecvQueueBoundDrops(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	h.bind(sock, 7000)
	src := netpkt.MustIP("1.1.1.1")
	for i := 0; i < recvQueueCap; i++ {
		h.deliver(src, 1, 7000, []byte("a"))
	}
	if h.e.Stats().DroppedQueueFull != 0 {
		t.Fatalf("dropped below the cap: %d", h.e.Stats().DroppedQueueFull)
	}
	h.deliver(src, 1, 7000, []byte("c")) // over cap
	if h.e.Stats().DroppedQueueFull != 1 {
		t.Fatalf("drops = %d", h.e.Stats().DroppedQueueFull)
	}
}

func TestConnectedSendUsesDefaultRemote(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	c := msg.Req{Op: msg.OpSockConnect, Flow: sock}
	c.Arg[0] = uint64(netpkt.MustIP("10.0.0.5").U32())
	c.Arg[1] = 500
	if rep := h.call(c); rep.Status != msg.StatusOK {
		t.Fatalf("connect: %d", rep.Status)
	}
	buf := h.bufs[sock]
	chunk, _ := buf.Get()
	ptr, _ := buf.Write(chunk, []byte("x"))
	r := msg.Req{Op: msg.OpSockSend, Flow: sock}
	r.SetChain([]shm.RichPtr{ptr})
	h.next++
	r.ID = h.next
	h.e.FromFront(r)
	toIP := h.e.DrainToIP()
	if len(toIP) != 1 || netpkt.IPFromU32(uint32(toIP[0].Arg[2])) != netpkt.MustIP("10.0.0.5") {
		t.Fatalf("toIP = %+v", toIP)
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	h := newHarness(t)
	s1 := h.socket()
	h.bind(s1, 8000)
	c := msg.Req{Op: msg.OpSockConnect, Flow: s1}
	c.Arg[0] = uint64(netpkt.MustIP("10.9.9.9").U32())
	c.Arg[1] = 53
	h.call(c)
	h.e.Tick()

	if len(h.saved) != 1 {
		t.Fatalf("one iteration saved %d times, want 1", len(h.saved))
	}
	blob := h.saved[len(h.saved)-1]

	// New incarnation restores: socket exists, bound, connected.
	h2 := newHarness(t)
	if err := h2.e.Restore(blob, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if h2.e.NumSockets() != 1 {
		t.Fatalf("restored %d sockets", h2.e.NumSockets())
	}
	// The restored socket still receives on its port.
	h2.deliver(netpkt.MustIP("10.9.9.9"), 53, 8000, []byte("answer"))
	if h2.e.Stats().DatagramsIn != 1 {
		t.Fatal("restored socket not receiving")
	}
	// Flows for PF conntrack rebuild include the connected 4-tuple.
	flows := h2.e.Flows()
	if len(flows) != 1 || flows[0].SrcPort != 8000 || flows[0].DstPort != 53 || flows[0].Proto != netpkt.ProtoUDP {
		t.Fatalf("flows = %+v", flows)
	}
}

func TestOnIPRestartResubmitsSends(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	h.bind(sock, 9000)
	buf := h.bufs[sock]
	chunk, _ := buf.Get()
	ptr, _ := buf.Write(chunk, []byte("dup me"))
	r := msg.Req{Op: msg.OpSockSend, Flow: sock}
	r.SetChain([]shm.RichPtr{ptr})
	r.Arg[0] = uint64(netpkt.MustIP("10.0.0.2").U32())
	r.Arg[1] = 1
	h.next++
	r.ID = h.next
	h.e.FromFront(r)
	first := h.e.DrainToIP()
	if len(first) != 1 {
		t.Fatal("no initial send")
	}
	// IP crashes before completing; engine aborts and resubmits with a
	// fresh ID ("we tend to prefer sending extra data").
	h.e.OnIPRestart()
	second := h.e.DrainToIP()
	if len(second) != 1 || second[0].Op != msg.OpIPSend {
		t.Fatalf("resubmission = %+v", second)
	}
	if second[0].ID == first[0].ID {
		t.Fatal("resubmission reused the old request ID")
	}
	if h.e.Stats().Resubmitted != 1 {
		t.Fatal("resubmission not counted")
	}
	// The old completion (if it ever arrives) is ignored.
	h.e.FromIP(msg.Req{ID: first[0].ID, Op: msg.OpIPSendDone})
	if reps := h.e.DrainToFront(); len(reps) != 0 {
		t.Fatalf("stale reply produced output: %+v", reps)
	}
}

func TestCloseReleasesResources(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	pool := h.bufs[sock].Pool().ID()
	h.bind(sock, 10000)
	h.deliver(netpkt.MustIP("1.1.1.1"), 1, 10000, []byte("pending"))
	if rep := h.call(msg.Req{Op: msg.OpSockClose, Flow: sock}); rep.Status != msg.StatusOK {
		t.Fatalf("close: %d", rep.Status)
	}
	// Queued datagram released back to IP.
	found := false
	for _, r := range h.e.DrainToIP() {
		if r.Op == msg.OpIPDeliverDone {
			found = true
		}
	}
	if !found {
		t.Fatal("queued datagram not released on close")
	}
	if h.e.NumSockets() != 0 {
		t.Fatal("socket not removed")
	}
	if _, err := h.space.Pool(pool); err == nil {
		t.Fatal("TX buffer pool outlived the socket")
	}
	// Port is reusable.
	s2 := h.socket()
	if st := h.bind(s2, 10000); st != msg.StatusOK {
		t.Fatalf("rebind after close: %d", st)
	}
}

// TestCloseWaitsForSendsInFlight: a datagram sent just before Close must
// still leave the node, so the TX buffer it points into stays mapped until
// IP completes it — across a live handoff too — and is dropped then.
func TestCloseWaitsForSendsInFlight(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	buf := h.bufs[sock]
	pool := buf.Pool().ID()
	chunk, _ := buf.Get()
	ptr, _ := buf.Write(chunk, []byte("last words"))
	r := msg.Req{Op: msg.OpSockSend, Flow: sock}
	r.SetChain([]shm.RichPtr{ptr})
	r.Arg[0] = uint64(netpkt.MustIP("10.0.0.2").U32())
	r.Arg[1] = 53
	h.next++
	r.ID = h.next
	h.e.FromFront(r)
	toIP := h.e.DrainToIP()
	if len(toIP) != 1 || toIP[0].Op != msg.OpIPSend {
		t.Fatalf("toIP = %+v", toIP)
	}
	if rep := h.call(msg.Req{Op: msg.OpSockClose, Flow: sock}); rep.Status != msg.StatusOK {
		t.Fatalf("close: %d", rep.Status)
	}
	if v, err := h.space.View(ptr); err != nil || string(v) != "last words" {
		t.Fatalf("payload of the in-flight datagram after close = %q, %v", v, err)
	}

	blob, bufs, err := h.e.HandoffState()
	if err != nil {
		t.Fatal(err)
	}
	nw := New(h.e.cfg, h.e.hdrPool)
	if err := nw.Restore(blob, bufs, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.space.Pool(pool); err != nil {
		t.Fatalf("TX buffer dropped with a send still in flight: %v", err)
	}
	nw.FromIP(msg.Req{ID: toIP[0].ID, Op: msg.OpIPSendDone, Status: msg.StatusOK})
	if _, err := h.space.Pool(pool); err == nil {
		t.Fatal("TX buffer pool outlived the closed socket's last send")
	}
}

// TestNoBufsRefusalAnnouncesWritable: a send refused for want of a header
// hands its chunks back, and when they refill an exhausted supply ring that
// is the writable edge the nonblocking sender waits on — the same rule as a
// completed send's recycle.
func TestNoBufsRefusalAnnouncesWritable(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	h.nonblocking(sock)
	for {
		if _, _, err := h.e.hdrPool.Alloc(); err != nil {
			break
		}
	}
	buf := h.bufs[sock]
	chunk, _ := buf.Get()
	for buf.Free() > 0 {
		buf.Get()
	}
	ptr, _ := buf.Write(chunk, []byte("x"))
	r := msg.Req{Op: msg.OpSockSend, Flow: sock}
	r.SetChain([]shm.RichPtr{ptr})
	r.Arg[0] = uint64(netpkt.MustIP("10.0.0.2").U32())
	r.Arg[1] = 53
	h.next++
	r.ID = h.next
	h.e.FromFront(r)
	reps := h.e.DrainToFront()
	if len(reps) == 0 || reps[0].ID != r.ID || reps[0].Status != msg.StatusErrNoBufs {
		t.Fatalf("send with the header pool exhausted: %+v", reps)
	}
	if buf.Free() != 1 {
		t.Fatalf("ring holds %d chunks after the refusal, want the 1 sent", buf.Free())
	}
	if eventBits(reps, sock)&msg.EvWritable == 0 {
		t.Fatal("refilled an exhausted ring without a writable edge")
	}
}

// TestNoBufsCompletionAnnouncesWritable: a send IP completes with
// StatusErrNoBufs (the device's TX ring was full and the datagram dropped)
// reaches the sender as sock.ErrNoBufs, which it retries on the writable
// edge. The engine owes that edge even though the sender's ring never ran
// dry; without it the sender waits forever.
func TestNoBufsCompletionAnnouncesWritable(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	h.nonblocking(sock)
	if st := h.bind(sock, 5000); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	h.send(sock, []byte("x"))
	out := h.e.DrainToIP()
	if len(out) != 1 || out[0].Op != msg.OpIPSend {
		t.Fatalf("toIP = %+v", out)
	}
	h.e.FromIP(msg.Req{ID: out[0].ID, Op: msg.OpIPSendDone, Status: msg.StatusErrNoBufs})
	reps := h.e.DrainToFront()
	if len(reps) == 0 || reps[len(reps)-1].Status != msg.StatusErrNoBufs {
		t.Fatalf("send dropped by IP: front got %+v, want the NoBufs reply", reps)
	}
	if eventBits(reps, sock)&msg.EvWritable == 0 {
		t.Fatalf("send dropped by IP answered NoBufs without a writable edge: %+v", reps)
	}
}

// TestFrontRestartReannouncesReadiness: a restarted frontdoor never sees the
// edges staged towards its dead incarnation (the edge's restart rule drops
// them), so the engine re-announces every nonblocking socket's current
// readiness, as after a live update.
func TestFrontRestartReannouncesReadiness(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	h.bind(sock, 7100)
	h.nonblocking(sock)
	h.deliver(netpkt.MustIP("1.1.1.1"), 1, 7100, []byte("queued"))
	if bits := eventBits(h.e.DrainToFront(), sock); bits != msg.EvReadable {
		t.Fatalf("delivery announced %#x, want readable", bits)
	}
	h.e.OnFrontRestart()
	if bits := eventBits(h.e.DrainToFront(), sock); bits != msg.EvReadable|msg.EvWritable {
		t.Fatalf("after the frontdoor restart: announced %#x, want readable|writable", bits)
	}
}

// TestUnservedOpIsAnsweredInval: every op of the vocabulary the front edge
// does not serve, and one outside it, gets exactly one answer, with its ID
// and StatusErrInval, so the caller never waits for a reply that cannot come.
func TestUnservedOpIsAnsweredInval(t *testing.T) {
	served := map[msg.Op]bool{
		msg.OpSockCreate: true, msg.OpSockBind: true, msg.OpSockConnect: true,
		msg.OpSockSend: true, msg.OpSockRecv: true, msg.OpSockRecvDone: true,
		msg.OpSockSetFlags: true, msg.OpSockClose: true,
	}
	unserved := []msg.Op{0xffff}
	for op := range msg.NumOps {
		if !served[op] {
			unserved = append(unserved, op)
		}
	}
	h := newHarness(t)
	for _, op := range unserved {
		h.e.FromFront(msg.Req{ID: 77, Op: op, Flow: 5})
		got := h.e.DrainToFront()
		if len(got) != 1 || got[0].ID != 77 || got[0].Op != msg.OpSockReply || got[0].Status != msg.StatusErrInval {
			t.Errorf("%v: front got %+v, want one OpSockReply with ID 77 and StatusErrInval", op, got)
		}
		if out := h.e.DrainToIP(); len(out) != 0 {
			t.Errorf("%v: %d requests towards IP", op, len(out))
		}
	}
}

// send stages payload in sock's buffer and hands the engine the send.
func (h *harness) send(sock uint32, payload []byte) {
	h.t.Helper()
	buf := h.bufs[sock]
	chunk, ok := buf.Get()
	if !ok {
		h.t.Fatal("socket buffer exhausted")
	}
	ptr, err := buf.Write(chunk, payload)
	if err != nil {
		h.t.Fatal(err)
	}
	h.next++
	r := msg.Req{ID: h.next, Op: msg.OpSockSend, Flow: sock}
	r.SetChain([]shm.RichPtr{ptr})
	r.Arg[0], r.Arg[1] = uint64(netpkt.IPAddr{10, 0, 0, 2}.U32()), 53
	h.e.FromFront(r)
}

// TestDrainedOutboxOutlivesNewOutput: a drained slice stays as it was until
// the next drain of the same outbox, whatever the engine queues meanwhile;
// callers feed drained requests back into the engine while still reading
// them.
func TestDrainedOutboxOutlivesNewOutput(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	if st := h.bind(sock, 5000); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	for _, box := range []struct {
		name  string
		queue func()
		drain func() []msg.Req
	}{
		{"toIP", func() { h.send(sock, []byte("query")) }, h.e.DrainToIP},
		{"toFront", func() { h.e.FromFront(msg.Req{ID: 99, Op: msg.OpSockCreate}) }, h.e.DrainToFront},
	} {
		for round := 0; round < 3; round++ { // past the first swap of the two arrays
			box.queue()
			first := box.drain()
			want := slices.Clone(first)
			box.queue()
			if len(first) == 0 || !slices.Equal(first, want) {
				t.Fatalf("%s, round %d: drained %+v became %+v when the engine queued more", box.name, round, want, first)
			}
			if second := box.drain(); len(second) != len(want) {
				t.Fatalf("%s, round %d: second drain holds %d requests, want %d", box.name, round, len(second), len(want))
			}
		}
	}
}

// TestSendCycleAllocations pins the allocations of one steady-state
// datagram, in the benchmark's shape (checksum offload, 64 B): the send
// request, DrainToIP, IP's OpIPSendDone and DrainToFront. Three remain: the
// send's own copy of its payload chain, and the request-table entry's boxed
// record and abort closure. The outboxes reuse their arrays and the IP
// request's chain is written in place (6 before both). A guard, not a claim.
func TestSendCycleAllocations(t *testing.T) {
	h := newHarness(t)
	h.e.cfg.Offload = true
	sock := h.socket()
	if st := h.bind(sock, 5000); st != msg.StatusOK {
		t.Fatalf("bind: %d", st)
	}
	payload := make([]byte, 64)
	cycle := func() {
		h.send(sock, payload)
		out := h.e.DrainToIP()
		if len(out) != 1 || out[0].Op != msg.OpIPSend {
			t.Fatalf("toIP = %+v", out)
		}
		h.e.FromIP(msg.Req{ID: out[0].ID, Op: msg.OpIPSendDone, Status: msg.StatusOK})
		if reps := h.e.DrainToFront(); len(reps) != 1 || reps[0].Status != msg.StatusOK {
			t.Fatalf("send replies = %+v", reps)
		}
	}
	cycle()
	cycle() // both arrays of each outbox grown
	got := testing.AllocsPerRun(100, cycle)
	t.Logf("%.1f allocations per datagram", got)
	if got > 3 {
		t.Errorf("%.1f allocations per datagram, want at most 3", got)
	}
}

// TestOversizedDatagramIsRefused: a send longer than MaxPayload, which a
// socket buffer's 16 chunks of 4 KB can stage, is refused with EINVAL
// before the engine takes a header: nothing goes to IP, the header pool is
// back at its baseline and the chunks are back in the socket's ring. A
// send of exactly MaxPayload goes out with its true UDP length.
func TestOversizedDatagramIsRefused(t *testing.T) {
	h := newHarness(t)
	sock := h.socket()
	buf := h.bufs[sock]
	stage := func(n int) msg.Req {
		var chain []shm.RichPtr
		for n > 0 {
			chunk, ok := buf.Get()
			if !ok {
				t.Fatal("socket buffer exhausted")
			}
			ptr, err := buf.Write(chunk, make([]byte, min(n, buf.ChunkSize())))
			if err != nil {
				t.Fatal(err)
			}
			chain = append(chain, ptr)
			n -= int(ptr.Len)
		}
		h.next++
		r := msg.Req{ID: h.next, Op: msg.OpSockSend, Flow: sock}
		r.SetChain(chain)
		r.Arg[0], r.Arg[1] = uint64(netpkt.IPAddr{10, 0, 0, 2}.U32()), 53
		return r
	}

	inUse := h.e.hdrPool.InUse()
	r := stage(16 * buf.ChunkSize())
	h.e.FromFront(r)
	if reps := h.e.DrainToFront(); len(reps) != 1 || reps[0].ID != r.ID || reps[0].Status != msg.StatusErrInval {
		t.Fatalf("send of %d B: replies %+v, want one EINVAL", 16*buf.ChunkSize(), reps)
	}
	if out := h.e.DrainToIP(); len(out) != 0 {
		t.Fatalf("refused send reached IP: %+v", out)
	}
	if got := h.e.hdrPool.InUse(); got != inUse {
		t.Fatalf("header pool holds %d chunks after the refusal, want %d", got, inUse)
	}
	if buf.Free() != 16 {
		t.Fatalf("ring holds %d chunks after the refusal, want the 16 sent", buf.Free())
	}

	h.e.FromFront(stage(MaxPayload))
	out := h.e.DrainToIP()
	if len(out) != 1 {
		t.Fatalf("send of MaxPayload: toIP = %+v", out)
	}
	hdr, err := h.space.View(out[0].Chain()[0])
	if err != nil {
		t.Fatal(err)
	}
	if uh, err := netpkt.ParseUDP(hdr); err != nil || int(uh.Length) != netpkt.UDPHeaderLen+MaxPayload {
		t.Fatalf("UDP header of a MaxPayload send: %+v, %v", uh, err)
	}
}
