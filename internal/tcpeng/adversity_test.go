package tcpeng

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// Loss, duplication and reordering at engine level (ROADMAP aim 3): a
// property test over seeded wire schedules, and beside it one directed row
// per mechanism of docs/ARCHITECTURE.md "Loss recovery".

// peerApp is one end's application in a two-way transfer: it writes out,
// reads whatever arrives until EOF, and closes after its last byte. poll
// never blocks; the test loop owns time.
type peerApp struct {
	pi    *pipe
	e     *Engine
	front *[]msg.Req
	bufs  bufMap
	sock  uint32

	out    []byte
	sent   int
	in     []byte
	recvID uint64
	closed bool
	eof    bool
}

func (a *peerApp) poll() {
	t := a.pi.t
	buf := a.bufs[a.sock]
	for a.sent < len(a.out) {
		var ptrs []shm.RichPtr
		for len(ptrs) < msg.MaxPtrs-1 && a.sent < len(a.out) {
			chunk, ok := buf.Get()
			if !ok {
				break
			}
			n := min(len(a.out)-a.sent, buf.ChunkSize())
			ptr, err := buf.Write(chunk, a.out[a.sent:a.sent+n])
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, ptr)
			a.sent += n
		}
		if len(ptrs) == 0 {
			break // ring exhausted until ACKs recycle it
		}
		a.pi.callID++
		r := msg.Req{ID: 1<<40 + a.pi.callID, Op: msg.OpSockSend, Flow: a.sock}
		r.SetChain(ptrs)
		a.e.FromFront(r, a.pi.now)
	}
	if a.sent == len(a.out) && !a.closed {
		a.closed = true
		a.pi.callID++
		a.e.FromFront(msg.Req{ID: 1<<40 + a.pi.callID, Op: msg.OpSockClose, Flow: a.sock}, a.pi.now)
	}
	if a.recvID == 0 && !a.eof {
		a.pi.callID++
		a.recvID = 1<<40 + a.pi.callID
		a.e.FromFront(msg.Req{ID: a.recvID, Op: msg.OpSockRecv, Flow: a.sock}, a.pi.now)
	}
	*a.front = append(*a.front, a.e.DrainToFront()...)
	for _, rep := range *a.front {
		if rep.Op != msg.OpSockEvent && rep.Status != msg.StatusOK {
			t.Fatalf("socket %d: %v failed with status %d (sent %d/%d, read %d, closed %v)", a.sock, rep.Op, rep.Status, a.sent, len(a.out), len(a.in), a.closed)
		}
		if rep.ID != a.recvID || rep.Op != msg.OpSockRecvData {
			continue
		}
		a.recvID = 0
		if rep.Arg[0] == 0 {
			a.eof = true
			continue
		}
		got := 0
		for _, ptr := range rep.Chain() {
			v, err := a.pi.space.View(ptr)
			if err != nil {
				t.Fatal(err)
			}
			a.in = append(a.in, v...)
			got += len(v)
		}
		done := msg.Req{Op: msg.OpSockRecvDone, Flow: a.sock}
		done.Arg[0] = uint64(got)
		a.e.FromFront(done, a.pi.now)
	}
	*a.front = (*a.front)[:0]
	a.pi.audited()
}

// pump is one turn of the virtual-time loop: move what is pending, then
// advance the clock — one wire step while anything is moving, else straight
// to the next timer — and tick both engines.
func (pi *pipe) pump() (moved bool) {
	moved = pi.step()
	next := pi.now.Add(100 * time.Microsecond)
	if !moved && len(pi.wire) == 0 {
		for _, e := range []*Engine{pi.a, pi.b} {
			if d := e.Deadline(pi.now); !d.IsZero() && d.After(next) {
				next = d
			}
		}
	}
	pi.now = next
	pi.a.Tick(pi.now)
	pi.b.Tick(pi.now)
	pi.audited()
	return moved
}

// exchange runs a full two-way transfer over the pipe's current fate —
// handshake, aOut one way and bOut the other at the same time, both ends
// close — in virtual time, until both sockets are gone and the wire is
// empty. It returns what each end read.
func (pi *pipe) exchange(port uint16, aOut, bOut []byte) (aIn, bIn []byte) {
	t := pi.t
	t.Helper()
	aBufs, bBufs := captureBufs(pi.a), captureBufs(pi.b)
	stuck := func(phase string) {
		t.Helper()
		t.Fatalf("%s stuck; a %+v; b %+v", phase, pi.a.Stats(), pi.b.Stats())
	}

	// The handshake crosses the same wire: a parked accept, a blocking
	// connect, and the pump until both have their reply.
	lsock := pi.call(pi.b, msg.Req{Op: msg.OpSockCreate}).Flow
	bind := msg.Req{Op: msg.OpSockBind, Flow: lsock}
	bind.Arg[0] = uint64(port)
	pi.call(pi.b, bind)
	pi.call(pi.b, msg.Req{Op: msg.OpSockListen, Flow: lsock})
	csock := pi.call(pi.a, msg.Req{Op: msg.OpSockCreate}).Flow
	const acceptID, connectID = 1 << 41, 1<<41 + 1
	pi.b.FromFront(msg.Req{ID: acceptID, Op: msg.OpSockAccept, Flow: lsock}, pi.now)
	conn := msg.Req{ID: connectID, Op: msg.OpSockConnect, Flow: csock}
	conn.Arg[0], conn.Arg[1] = uint64(pi.bIP.U32()), uint64(port)
	pi.a.FromFront(conn, pi.now)
	var child uint32
	for steps, connected := 0, false; child == 0 || !connected; steps++ {
		if steps == 1_000_000 {
			stuck("handshake")
		}
		pi.pump()
		if rep, ok := takeReply(&pi.aFront, connectID); ok {
			if connected = rep.Status == msg.StatusOK; !connected {
				t.Fatalf("connect: status %d", rep.Status)
			}
		}
		if rep, ok := takeReply(&pi.bFront, acceptID); ok {
			if child = uint32(rep.Arg[0]); rep.Status != msg.StatusOK {
				t.Fatalf("accept: status %d", rep.Status)
			}
		}
	}
	for _, end := range []struct {
		e    *Engine
		sock uint32
	}{{pi.a, csock}, {pi.b, child}} {
		end.e.FromFront(msg.Req{ID: 1 << 42, Op: msg.OpSockBufEnsure, Flow: end.sock}, pi.now)
	}

	apps := []*peerApp{
		{pi: pi, e: pi.a, front: &pi.aFront, bufs: aBufs, sock: csock, out: aOut},
		{pi: pi, e: pi.b, front: &pi.bFront, bufs: bBufs, sock: child, out: bOut},
	}
	for steps := 0; ; steps++ {
		if steps == 2_000_000 {
			stuck(fmt.Sprintf("transfer (a read %d/%d eof %v, b read %d/%d eof %v)",
				len(apps[0].in), len(bOut), apps[0].eof, len(apps[1].in), len(aOut), apps[1].eof))
		}
		for _, app := range apps {
			app.poll()
		}
		moved := pi.pump()
		_, aLive := pi.a.SocketState(csock)
		_, bLive := pi.b.SocketState(child)
		if !aLive && !bLive && !moved && len(pi.wire) == 0 {
			break
		}
	}
	if !apps[0].eof || !apps[1].eof {
		t.Fatalf("sockets gone without EOF: a %v, b %v", apps[0].eof, apps[1].eof)
	}
	if rep := pi.call(pi.b, msg.Req{Op: msg.OpSockClose, Flow: lsock}); rep.Status != msg.StatusOK {
		t.Fatalf("close listener: %d", rep.Status)
	}
	return apps[0].in, apps[1].in
}

// checkNothingLeaked: every header chunk, every receive chunk and every
// deliver cookie is back where it came from.
func (pi *pipe) checkNothingLeaked() {
	pi.t.Helper()
	for name, e := range map[string]*Engine{"a": pi.a, "b": pi.b} {
		if n := e.hdrPool.InUse(); n != 0 {
			pi.t.Errorf("engine %s: %d header chunks still in use", name, n)
		}
		if n := len(e.deliverRefs); n != 0 {
			pi.t.Errorf("engine %s: %d deliver cookies still referenced", name, n)
		}
		if n := len(e.retxFrames); n != 0 {
			pi.t.Errorf("engine %s: %d retransmitted frames still tracked", name, n)
		}
	}
	if n := pi.rxPool.InUse(); n != 0 || len(pi.inFlight) != 0 {
		pi.t.Errorf("pipe: %d receive chunks in use, %d deliveries never acknowledged", n, len(pi.inFlight))
	}
}

// TestSeededAdversity: whatever the wire does — lose, duplicate, hold back
// by a few steps, each drawn from the seed — both directions arrive
// byte-exact, both FINs complete, and nothing is leaked. Each seed also
// picks TSO and GRO on or off and the transfer sizes. After every event
// either engine is handed, its timer heap holds exactly its armed timers and
// no socket whose FIN is acknowledged holds a TX buffer (checkBufs).
func TestSeededAdversity(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	var sum Stats
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		pLoss, pDup, pLate := 0.15*rng.Float64(), 0.05*rng.Float64(), 0.10*rng.Float64()
		pi := newPipe(t, rng.Intn(2) == 0)
		pi.gro = rng.Intn(2) == 0
		pi.latency = rng.Intn(3)
		pi.audit = func() {
			checkTimers(t, pi.a)
			checkTimers(t, pi.b)
			checkBufs(t, pi.a)
			checkBufs(t, pi.b)
		}
		pi.fate = func(string, int, []byte) (copies, delay int) {
			copies = 1
			switch x := rng.Float64(); {
			case x < pLoss:
				copies = 0
			case x < pLoss+pDup:
				copies = 2
			}
			if rng.Float64() < pLate {
				delay = 1 + rng.Intn(8)
			}
			return copies, delay
		}
		aOut := pattern(1 + rng.Intn(200_000))
		bOut := pattern(1 + rng.Intn(60_000))
		aIn, bIn := pi.exchange(9000, aOut, bOut)
		if !bytes.Equal(bIn, aOut) || !bytes.Equal(aIn, bOut) {
			t.Fatalf("seed %d (loss %.3f dup %.3f late %.3f tso %v gro %v): a->b %d/%d bytes, first diff %d; b->a %d/%d, first diff %d",
				seed, pLoss, pDup, pLate, pi.a.cfg.TSO, pi.gro,
				len(bIn), len(aOut), firstDiff(bIn, aOut), len(aIn), len(bOut), firstDiff(aIn, bOut))
		}
		pi.checkNothingLeaked()
		if t.Failed() {
			t.Fatalf("seed %d (loss %.3f dup %.3f late %.3f tso %v gro %v)", seed, pLoss, pDup, pLate, pi.a.cfg.TSO, pi.gro)
		}
		for _, e := range []*Engine{pi.a, pi.b} {
			st := e.Stats()
			for i, c := range st.counters() {
				*sum.counters()[i] += *c
			}
		}
	}
	t.Logf("%d seeds: %+v", seeds, sum)
	if sum.OOOQueued == 0 || sum.FastRetx == 0 || sum.Probes == 0 || sum.RTOs == 0 || sum.DropsOOO == 0 {
		t.Error("a recovery mechanism was never exercised")
	}
}

// oneWay is a connected pair for the directed rows: data flows a -> b.
type oneWay struct {
	*pipe
	aBufs        bufMap
	csock, child uint32
	snd, rcv     *pcb
}

func newOneWay(t *testing.T, port uint16, prep func(pi *pipe)) *oneWay {
	pi := newPipe(t, false)
	pi.latency = 1 // a round trip takes time, so there is an RTT to estimate
	if prep != nil {
		prep(pi)
	}
	w := &oneWay{pipe: pi, aBufs: captureBufs(pi.a)}
	captureBufs(pi.b)
	w.csock, w.child = pi.connectPair(port)
	w.snd, w.rcv = pi.a.pcbOf(w.csock), pi.b.pcbOf(w.child)
	return w
}

// dropData makes the wire lose the listed a->b data segments (1 = the first
// segment with payload after this call), once each.
func (w *oneWay) dropData(nth ...int) {
	drop := map[int]bool{}
	for _, n := range nth {
		drop[n] = true
	}
	seen := 0
	w.fate = func(dir string, _ int, seg []byte) (int, int) {
		if th, err := netpkt.ParseTCP(seg); dir == "a->b" && err == nil && len(seg) > th.DataOff {
			if seen++; drop[seen] {
				delete(drop, seen)
				return 0, 0
			}
		}
		return 1, 0
	}
}

// segFromPeer builds a segment as the connection's peer would send it to
// the engine that owns p.
func segFromPeer(p *pcb, seq uint32, flags uint8, wnd uint16, payload []byte) []byte {
	th := netpkt.TCPHeader{
		SrcPort: p.remotePort, DstPort: p.localPort,
		Seq: seq, Ack: p.sndUna, Flags: flags, Window: wnd,
	}
	seg := make([]byte, th.MarshalLen()+len(payload))
	th.Marshal(seg)
	copy(seg[th.MarshalLen():], payload)
	return seg
}

// acksOf drains what engine e queued for IP, completes every send, returns
// every cookie, and hands back the parsed headers — the peer never sees them.
func (pi *pipe) acksOf(e *Engine) []netpkt.TCPHeader {
	pi.t.Helper()
	var out []netpkt.TCPHeader
	for _, r := range e.DrainToIP() {
		switch r.Op {
		case msg.OpIPSend:
			view, err := pi.space.View(r.Ptrs[0])
			if err != nil {
				pi.t.Fatal(err)
			}
			th, err := netpkt.ParseTCP(view)
			if err != nil {
				pi.t.Fatal(err)
			}
			out = append(out, th)
			e.FromIP(msg.Req{ID: r.ID, Op: msg.OpIPSendDone, Status: msg.StatusOK}, pi.now)
		case msg.OpIPDeliverDone:
			pi.recycle(r.ID)
		}
	}
	return out
}

func blocks(th netpkt.TCPHeader) []netpkt.SACKBlock { return th.SACK[:th.NSACK] }

// TestHoleFilledAckJumpsHeldRun: out-of-order segments — one of them a
// GRO-merged run of two views — are held and SACKed, most recent first; the
// retransmission that fills the hole is ACKed at once, past everything held,
// and the application reads the stream in order.
func TestHoleFilledAckJumpsHeldRun(t *testing.T) {
	w := newOneWay(t, 9301, nil)
	data := pattern(6 * 1000)
	base := w.rcv.rcvNxt
	seg := func(i int) []byte { // segment i covers bytes [1000i, 1000i+1000)
		return segFromPeer(w.rcv, base+uint32(1000*i), netpkt.TCPAck, 65535, data[1000*i:1000*i+1000])
	}
	w.deliver(w.b, w.aIP, [][]byte{seg(1), seg(2)}) // one delivery, lead + one extra
	w.deliver(w.b, w.aIP, [][]byte{seg(4)})
	acks := w.acksOf(w.b)
	if len(acks) != 2 || acks[1].Ack != base {
		t.Fatalf("want an immediate ACK of %d per out-of-order arrival, got %+v", base, acks)
	}
	want := []netpkt.SACKBlock{{Start: base + 4000, End: base + 5000}, {Start: base + 1000, End: base + 3000}}
	if got := blocks(acks[1]); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("SACK blocks %+v, want %+v (most recent first)", got, want)
	}
	if len(w.rcv.oooQ) != 3 || w.rcv.rcvQueued != 0 || w.b.Stats().OOOQueued != 3 {
		t.Fatalf("held %d views, %d bytes readable, OOOQueued %d", len(w.rcv.oooQ), w.rcv.rcvQueued, w.b.Stats().OOOQueued)
	}
	w.deliver(w.b, w.aIP, [][]byte{seg(0)})
	acks = w.acksOf(w.b)
	if len(acks) != 1 || acks[0].Ack != base+3000 {
		t.Fatalf("hole filled: want one ACK of %d, got %+v", base+3000, acks)
	}
	if got := blocks(acks[0]); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("SACK blocks after the fill: %+v", got)
	}
	w.deliver(w.b, w.aIP, [][]byte{seg(3)})
	if acks = w.acksOf(w.b); len(acks) != 1 || acks[0].Ack != base+5000 || acks[0].NSACK != 0 {
		t.Fatalf("last hole filled: %+v", acks)
	}
	if got := w.recvBytes(w.b, w.child, 5000); !bytes.Equal(got, data[:5000]) {
		t.Fatalf("stream corrupted at %d", firstDiff(got, data[:5000]))
	}
	w.acksOf(w.b)
	w.checkNothingLeaked()
}

// TestSACKBlockOrderAndMerge: three blocks at most, the most recently
// changed run first; a segment that joins two runs merges them.
func TestSACKBlockOrderAndMerge(t *testing.T) {
	w := newOneWay(t, 9302, nil)
	base := w.rcv.rcvNxt
	arrive := func(off uint32) netpkt.TCPHeader {
		w.deliver(w.b, w.aIP, [][]byte{segFromPeer(w.rcv, base+off, netpkt.TCPAck, 65535, make([]byte, 500))})
		acks := w.acksOf(w.b)
		return acks[len(acks)-1]
	}
	arrive(1000)
	arrive(3000)
	arrive(5000)
	th := arrive(7000)
	want := []netpkt.SACKBlock{{Start: base + 7000, End: base + 7500}, {Start: base + 5000, End: base + 5500}, {Start: base + 3000, End: base + 3500}}
	if got := blocks(th); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("four runs held: blocks %+v, want %+v", got, want)
	}
	th = arrive(1500) // extends the oldest run: it is now the most recent
	if got := blocks(th); got[0] != (netpkt.SACKBlock{Start: base + 1000, End: base + 2000}) || got[1] != want[0] || got[2] != want[1] {
		t.Fatalf("after extending the oldest run: %+v", got)
	}
	th = arrive(2000) // [2000,2500) joins nothing yet
	th = arrive(2500) // [2500,3000) joins [1000,2500) to [3000,3500)
	if got := blocks(th); got[0] != (netpkt.SACKBlock{Start: base + 1000, End: base + 3500}) {
		t.Fatalf("after joining two runs: %+v", got)
	}
}

// TestFinBehindHole: a FIN that arrives before the data in front of it —
// riding on an out-of-order segment, or bare — waits for the hole to fill.
func TestFinBehindHole(t *testing.T) {
	for _, bare := range []bool{false, true} {
		w := newOneWay(t, 9303, nil)
		data := pattern(2000)
		base := w.rcv.rcvNxt
		if bare {
			w.deliver(w.b, w.aIP, [][]byte{segFromPeer(w.rcv, base+1000, netpkt.TCPAck, 65535, data[1000:])})
			w.deliver(w.b, w.aIP, [][]byte{segFromPeer(w.rcv, base+2000, netpkt.TCPAck|netpkt.TCPFin, 65535, nil)})
		} else {
			w.deliver(w.b, w.aIP, [][]byte{segFromPeer(w.rcv, base+1000, netpkt.TCPAck|netpkt.TCPFin, 65535, data[1000:])})
		}
		if w.rcv.finRcvd || w.rcv.state != StateEstablished || !w.rcv.finHeld {
			t.Fatalf("bare=%v: FIN behind a hole took effect early: finRcvd %v state %v finHeld %v", bare, w.rcv.finRcvd, w.rcv.state, w.rcv.finHeld)
		}
		w.deliver(w.b, w.aIP, [][]byte{segFromPeer(w.rcv, base, netpkt.TCPAck, 65535, data[:1000])})
		acks := w.acksOf(w.b)
		if last := acks[len(acks)-1]; last.Ack != base+2001 {
			t.Fatalf("bare=%v: ACK %d after the fill, want %d (data and FIN)", bare, last.Ack, base+2001)
		}
		if !w.rcv.finRcvd || w.rcv.state != StateCloseWait {
			t.Fatalf("bare=%v: after the fill: finRcvd %v state %v", bare, w.rcv.finRcvd, w.rcv.state)
		}
		if got := w.recvBytes(w.b, w.child, 2000); !bytes.Equal(got, data) {
			t.Fatalf("bare=%v: stream corrupted", bare)
		}
		if rep := w.call(w.b, msg.Req{Op: msg.OpSockRecv, Flow: w.child}); rep.Op != msg.OpSockRecvData || rep.Arg[0] != 0 {
			t.Fatalf("bare=%v: want EOF after the data, got %+v", bare, rep)
		}
	}
}

// TestOutOfOrderRefusals: what reaches beyond the advertised window, what
// duplicates a held segment and what overlaps one is refused and counted —
// and an in-order segment that runs into held bytes is clipped there.
func TestOutOfOrderRefusals(t *testing.T) {
	w := newOneWay(t, 9304, nil)
	data := pattern(4000)
	base := w.rcv.rcvNxt
	arrive := func(off, n int) {
		w.deliver(w.b, w.aIP, [][]byte{segFromPeer(w.rcv, base+uint32(off), netpkt.TCPAck, 65535, data[off:off+n])})
	}
	w.deliver(w.b, w.aIP, [][]byte{segFromPeer(w.rcv, base+RcvBufLimit-100, netpkt.TCPAck, 65535, make([]byte, 1000))})
	if st := w.b.Stats(); st.DropsOOO != 1 || st.OOOQueued != 0 {
		t.Fatalf("beyond the window: DropsOOO %d OOOQueued %d", st.DropsOOO, st.OOOQueued)
	}
	arrive(1460, 1460) // held
	arrive(1460, 1460) // exact duplicate
	arrive(2000, 1460) // overlaps its tail
	arrive(1000, 1000) // overlaps its head
	if st := w.b.Stats(); st.DropsOOO != 4 || st.OOOQueued != 1 || len(w.rcv.oooQ) != 1 {
		t.Fatalf("duplicates and overlaps: DropsOOO %d OOOQueued %d held %d", st.DropsOOO, st.OOOQueued, len(w.rcv.oooQ))
	}
	if acks := w.acksOf(w.b); len(acks) != 5 {
		t.Fatalf("%d ACKs for 5 out-of-order arrivals", len(acks))
	}
	arrive(0, 2000) // in order, 540 bytes of it already held
	if acks := w.acksOf(w.b); len(acks) != 1 || acks[0].Ack != base+2920 || acks[0].NSACK != 0 {
		t.Fatalf("clipped fill: %+v", acks)
	}
	if got := w.recvBytes(w.b, w.child, 2920); !bytes.Equal(got, data[:2920]) {
		t.Fatalf("stream corrupted at %d", firstDiff(got, data[:2920]))
	}
	w.acksOf(w.b)
	w.checkNothingLeaked()
}

// TestThreeHolesOneEpisode: three segments of one window lost, all three
// re-sent on SACK evidence in one episode — one window reduction, no
// timeout, nothing the receiver held sent twice.
func TestThreeHolesOneEpisode(t *testing.T) {
	w := newOneWay(t, 9305, nil)
	w.dropData(2, 5, 7)
	data := pattern(10 * MSS)
	w.sendBytes(w.a, w.aBufs, w.csock, data)
	if got := w.recvBytes(w.b, w.child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted at %d", firstDiff(got, data))
	}
	snd, rcv := w.a.Stats(), w.b.Stats()
	if snd.FastRetx != 1 || snd.Retransmits != 3 || snd.RTOs != 0 {
		t.Errorf("sender: FastRetx %d Retransmits %d RTOs %d Probes %d, want 1 / 3 / 0", snd.FastRetx, snd.Retransmits, snd.RTOs, snd.Probes)
	}
	if rcv.DropsOOO != 0 || rcv.DropsDup != 0 || rcv.OOOQueued != 6 {
		t.Errorf("receiver: DropsOOO %d DropsDup %d OOOQueued %d, want 0 / 0 / 6", rcv.DropsOOO, rcv.DropsDup, rcv.OOOQueued)
	}
	if w.snd.inRecovery || len(w.snd.sacked) != 0 || w.snd.cwnd >= InitCwnd {
		t.Errorf("after the episode: inRecovery %v, %d SACKed ranges, cwnd %d (initial %d)", w.snd.inRecovery, len(w.snd.sacked), w.snd.cwnd, InitCwnd)
	}
}

// TestTailLossRepairedByProbe: the last segments of a flight vanish, so no
// duplicate ACK and no SACK ever comes. The probe timeout re-sends the last
// one, its SACK shows the hole under it, and the hole is repaired — all
// before the RTO.
func TestTailLossRepairedByProbe(t *testing.T) {
	w := newOneWay(t, 9306, nil)
	warm := pattern(3000) // gives the sender an RTT estimate
	w.sendBytes(w.a, w.aBufs, w.csock, warm)
	w.recvBytes(w.b, w.child, len(warm))
	if w.snd.srtt == 0 {
		t.Fatal("no RTT estimate after the first exchange")
	}
	w.dropData(4, 5)
	data := pattern(5 * MSS)
	w.sendBytes(w.a, w.aBufs, w.csock, data)
	if got := w.recvBytes(w.b, w.child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted at %d", firstDiff(got, data))
	}
	snd := w.a.Stats()
	if snd.Probes == 0 || snd.RTOs != 0 {
		t.Errorf("Probes %d RTOs %d, want a probe and no timeout", snd.Probes, snd.RTOs)
	}
	if snd.Retransmits != 2 || w.b.Stats().DropsDup != 0 {
		t.Errorf("Retransmits %d (want the probe and the hole), receiver DropsDup %d", snd.Retransmits, w.b.Stats().DropsDup)
	}
}

// TestStrayProbeReducesNothing: a probe whose flight was merely slow draws
// a plain cumulative ACK; the window is untouched.
func TestStrayProbeReducesNothing(t *testing.T) {
	w := newOneWay(t, 9307, nil)
	warm := pattern(3000)
	w.sendBytes(w.a, w.aBufs, w.csock, warm)
	w.recvBytes(w.b, w.child, len(warm))
	w.fate = func(dir string, _ int, seg []byte) (int, int) {
		if th, err := netpkt.ParseTCP(seg); dir == "a->b" && err == nil && len(seg) > th.DataOff {
			return 1, 60 // far beyond two round trips
		}
		return 1, 0
	}
	cwnd := w.snd.cwnd
	data := pattern(3 * MSS)
	w.sendBytes(w.a, w.aBufs, w.csock, data)
	if got := w.recvBytes(w.b, w.child, len(data)); !bytes.Equal(got, data) {
		t.Fatal("stream corrupted")
	}
	snd := w.a.Stats()
	if snd.Probes == 0 {
		t.Fatal("the slow flight drew no probe: nothing was tested")
	}
	if snd.FastRetx != 0 || snd.RTOs != 0 || w.snd.cwnd < cwnd {
		t.Errorf("stray probe: FastRetx %d RTOs %d cwnd %d -> %d", snd.FastRetx, snd.RTOs, cwnd, w.snd.cwnd)
	}
}

// TestBareAcksAreNotLossEvidence: pure ACKs that repeat the ACK number
// while the advertised window moves — what a reading application makes of
// recvDone — are not even duplicate ACKs, and start no recovery however many
// arrive. Ones that repeat the window as well are duplicate ACKs, and on a
// SACK connection still no evidence: a receiver missing something would have
// said what it holds.
func TestBareAcksAreNotLossEvidence(t *testing.T) {
	w := newOneWay(t, 9308, nil)
	w.fate = func(dir string, _ int, _ []byte) (int, int) { // a->b goes dark: five segments in flight, never arriving
		if dir == "a->b" {
			return 0, 0
		}
		return 1, 0
	}
	w.sendBytes(w.a, w.aBufs, w.csock, pattern(5*MSS))
	cwnd := w.snd.cwnd
	for i := 0; i < 8; i++ {
		w.deliver(w.a, w.bIP, [][]byte{segFromPeer(w.snd, w.snd.rcvNxt, netpkt.TCPAck, uint16(30000+1000*i), nil)})
	}
	if st := w.a.Stats(); st.FastRetx != 0 || st.DupAcksIn != 0 || w.snd.cwnd != cwnd || w.snd.inRecovery {
		t.Fatalf("window updates: FastRetx %d DupAcksIn %d cwnd %d -> %d inRecovery %v", st.FastRetx, st.DupAcksIn, cwnd, w.snd.cwnd, w.snd.inRecovery)
	}
	for i := 0; i < 5; i++ {
		w.deliver(w.a, w.bIP, [][]byte{segFromPeer(w.snd, w.snd.rcvNxt, netpkt.TCPAck, 37000, nil)})
	}
	if st := w.a.Stats(); st.FastRetx != 0 || st.DupAcksIn != 5 || w.snd.cwnd != cwnd || w.snd.inRecovery || st.Retransmits != 0 {
		t.Fatalf("duplicate ACKs without SACK blocks on a SACK connection: FastRetx %d DupAcksIn %d cwnd %d -> %d Retransmits %d",
			st.FastRetx, st.DupAcksIn, cwnd, w.snd.cwnd, st.Retransmits)
	}
}

// stripSACKPermitted turns a SYN's SACK-permitted option into padding: the
// peer behind this wire never negotiated SACK.
func stripSACKPermitted(seg []byte) {
	th, err := netpkt.ParseTCP(seg)
	if err != nil || th.Flags&netpkt.TCPSyn == 0 {
		return
	}
	for i := netpkt.TCPHeaderLen; i+1 < th.DataOff; {
		switch seg[i] {
		case 0:
			return
		case 1:
			i++
		case 4:
			seg[i], seg[i+1] = 1, 1
			return
		default:
			i += int(seg[i+1])
		}
	}
}

// TestPeerWithoutSACK: the same marking, fed by duplicate ACKs and NewReno
// partial ACKs — two holes in one window, one episode, no timeout.
func TestPeerWithoutSACK(t *testing.T) {
	w := newOneWay(t, 9309, func(pi *pipe) {
		pi.fate = func(_ string, _ int, seg []byte) (int, int) {
			stripSACKPermitted(seg)
			return 1, 0
		}
	})
	if w.snd.sackOK || w.rcv.sackOK {
		t.Fatalf("SACK negotiated through a wire that strips the option: %v %v", w.snd.sackOK, w.rcv.sackOK)
	}
	w.dropData(2, 6)
	data := pattern(10 * MSS)
	w.sendBytes(w.a, w.aBufs, w.csock, data)
	if got := w.recvBytes(w.b, w.child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted at %d", firstDiff(got, data))
	}
	snd := w.a.Stats()
	if snd.FastRetx != 1 || snd.RTOs != 0 || snd.Retransmits != 2 || len(w.snd.sacked) != 0 {
		t.Errorf("FastRetx %d RTOs %d Retransmits %d, %d SACKed ranges; want 1 / 0 / 2 / 0", snd.FastRetx, snd.RTOs, snd.Retransmits, len(w.snd.sacked))
	}
	if w.b.Stats().OOOQueued != 7 {
		t.Errorf("receiver held %d segments, want 7 (reassembly does not depend on SACK)", w.b.Stats().OOOQueued)
	}
}

// TestTimeoutAndIPRestartResendOnlyTheHoles: with segments 3 and 4 of four
// SACKed — too little evidence for the byte rule, and no RTT estimate yet for
// a probe — the RTO, or an IP restart, re-sends segments 1 and 2 and nothing
// the peer holds. Only the RTO touches the window.
func TestTimeoutAndIPRestartResendOnlyTheHoles(t *testing.T) {
	for _, how := range []string{"rto", "ip-restart"} {
		w := newOneWay(t, 9310, nil)
		w.dropData(1, 2)
		data := pattern(4 * MSS)
		w.sendBytes(w.a, w.aBufs, w.csock, data)
		for i := 0; i < 20; i++ {
			w.step()
		}
		if len(w.snd.sacked) != 1 || w.snd.sacked[0] != (seqRange{w.snd.sndUna + 2*MSS, w.snd.sndUna + 4*MSS}) || w.snd.inRecovery {
			t.Fatalf("%s: scoreboard %+v inRecovery %v before the event", how, w.snd.sacked, w.snd.inRecovery)
		}
		cwnd := w.snd.cwnd
		if how == "ip-restart" {
			w.a.OnIPRestart()
		}
		if got := w.recvBytes(w.b, w.child, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("%s: stream corrupted at %d", how, firstDiff(got, data))
		}
		snd, rcv := w.a.Stats(), w.b.Stats()
		if snd.Retransmits != 2 || rcv.DropsOOO != 0 || rcv.DropsDup != 0 {
			t.Errorf("%s: Retransmits %d, receiver DropsOOO %d DropsDup %d; want 2 / 0 / 0", how, snd.Retransmits, rcv.DropsOOO, rcv.DropsDup)
		}
		switch how {
		case "rto":
			if snd.RTOs != 1 || snd.FastRetx != 0 || w.snd.ssthresh != 2*MSS {
				t.Errorf("rto: RTOs %d FastRetx %d ssthresh %d", snd.RTOs, snd.FastRetx, w.snd.ssthresh)
			}
		case "ip-restart":
			if snd.RTOs != 0 || snd.SendsResubmitted != 1 || w.snd.cwnd < cwnd {
				t.Errorf("ip-restart: RTOs %d SendsResubmitted %d cwnd %d -> %d", snd.RTOs, snd.SendsResubmitted, cwnd, w.snd.cwnd)
			}
		}
	}
}

// TestReceiveAllocationCeiling: heap allocations for one in-order data
// segment, and for an out-of-order segment plus the one that fills its hole,
// each through FromIP, read by the application and released. A guard on the
// receive path, not a claim: the ceilings are what this code reaches (the
// reply and request queues growing from empty, the ACK's chain, the
// request-database entry); the in-order one is one below what the code
// before the reassembly queue measured (9).
func TestReceiveAllocationCeiling(t *testing.T) {
	w := newOneWay(t, 9311, nil)
	payload := pattern(1000)
	ptr, buf, err := w.rxPool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	cookie := uint64(1 << 50)
	arrive := func(seq uint32) {
		seg := buf[:netpkt.TCPHeaderLen+len(payload)]
		th := netpkt.TCPHeader{SrcPort: w.rcv.remotePort, DstPort: w.rcv.localPort, Seq: seq, Ack: w.rcv.sndUna, Flags: netpkt.TCPAck | netpkt.TCPPsh, Window: 65535}
		th.Marshal(seg)
		copy(seg[netpkt.TCPHeaderLen:], payload)
		cookie++
		req := msg.Req{ID: cookie, Op: msg.OpIPDeliver}
		req.Ptrs[0], req.NPtr = ptr.Slice(0, uint32(len(seg))), 1
		req.Arg[1] = uint64(w.aIP.U32())
		w.b.FromIP(req, w.now)
	}
	read := func(n int) {
		w.b.FromFront(msg.Req{ID: 7, Op: msg.OpSockRecv, Flow: w.child}, w.now)
		done := msg.Req{Op: msg.OpSockRecvDone, Flow: w.child}
		done.Arg[0] = uint64(n)
		w.b.FromFront(done, w.now)
		w.b.DrainToFront()
		for _, r := range w.b.DrainToIP() {
			if r.Op == msg.OpIPSend {
				w.b.FromIP(msg.Req{ID: r.ID, Op: msg.OpIPSendDone}, w.now)
			}
		}
	}
	inOrder := testing.AllocsPerRun(200, func() {
		arrive(w.rcv.rcvNxt)
		read(1000)
	})
	pair := testing.AllocsPerRun(200, func() {
		arrive(w.rcv.rcvNxt + 1000)
		arrive(w.rcv.rcvNxt)
		read(2000)
	})
	if st := w.b.Stats(); st.OOOQueued != 201 || st.DropsOOO != 0 || st.DropsDup != 0 {
		t.Fatalf("the pair did not go through the reassembly queue: %+v", st)
	}
	t.Logf("allocations: in-order segment %.1f, out-of-order + fill %.1f", inOrder, pair)
	const inOrderMax, pairMax = 8, 14
	if inOrder > inOrderMax || pair > pairMax {
		t.Errorf("allocations: in-order segment %.1f (ceiling %d), out-of-order + fill %.1f (ceiling %d)", inOrder, inOrderMax, pair, pairMax)
	}
}
