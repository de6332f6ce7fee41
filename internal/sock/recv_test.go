package sock

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/shm"
	"newtos/internal/wiring"
)

// tcpDoor stands in for the TCP door and a nonblocking engine behind it.
// Its receive queue keeps every range that has not been acknowledged, offers
// up to msg.MaxPtrs of them per OpSockRecv and drops exactly the
// acknowledged bytes on OpSockRecvDone — tcpeng's contract, which is what
// lets the library keep no copy of its own. Recv, accept and connect answer
// EAGAIN until the test makes them ready; no edge is posted unless the test
// posts it (edge), so the door counts every op a wrapper issues while it
// waits. While holdAccepts is set it keeps accept replies back until
// releaseAccepts sends them.
type tcpDoor struct {
	ep *kipc.Endpoint

	mu        sync.Mutex
	app       kipc.EndpointID // the subscriber: who set nonblocking mode
	next      uint32          // the last socket id handed out
	ops       map[msg.Op]int
	rcvQ      []shm.RichPtr
	acks      []uint64 // Arg[0] of every OpSockRecvDone, in order
	children  []uint32 // connections an accept hands out
	connected bool     // connect answers OK instead of EAGAIN
	hold      bool     // keep accept replies back in held
	held      []kipc.Msg
	closes    []uint32 // the socket of every OpSockClose, in order
}

func newTCPDoor(t *testing.T, hub *wiring.Hub) *tcpDoor {
	t.Helper()
	ep, err := hub.Kern.Register(msg.TCPFrontdoor, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &tcpDoor{ep: ep, ops: make(map[msg.Op]int)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.serve()
	}()
	t.Cleanup(func() {
		ep.Close()
		<-done
	})
	return d
}

func (d *tcpDoor) serve() {
	for {
		m, err := d.ep.Receive(0)
		if err != nil {
			return // closed
		}
		r := m.Req
		rep := r.Reply(msg.OpSockReply, msg.StatusOK)
		held := false
		d.mu.Lock()
		d.ops[r.Op]++
		switch r.Op {
		case msg.OpSockCreate:
			d.next++
			rep.Flow = d.next
		case msg.OpSockSetFlags:
			d.app = m.From
		case msg.OpSockRecv:
			if len(d.rcvQ) == 0 {
				rep.Status = msg.StatusErrAgain
				break
			}
			rep.Op = msg.OpSockRecvData
			rep.SetChain(d.rcvQ[:min(len(d.rcvQ), msg.MaxPtrs)])
			rep.Arg[0] = uint64(rep.ChainLen())
		case msg.OpSockAccept:
			if held = d.hold; held {
				d.held = append(d.held, kipc.Msg{From: m.From, Req: rep})
				break
			}
			if len(d.children) == 0 {
				rep.Status = msg.StatusErrAgain
				break
			}
			rep.Arg[0] = uint64(d.children[0])
			d.children = d.children[1:]
		case msg.OpSockConnect:
			if !d.connected {
				rep.Status = msg.StatusErrAgain
			}
		case msg.OpSockClose:
			d.closes = append(d.closes, r.Flow)
		case msg.OpSockRecvDone:
			d.acks = append(d.acks, r.Arg[0])
			for n := uint32(r.Arg[0]); n > 0 && len(d.rcvQ) > 0; {
				take := min(n, d.rcvQ[0].Len)
				d.rcvQ[0] = d.rcvQ[0].Slice(take, d.rcvQ[0].Len)
				n -= take
				if d.rcvQ[0].Len == 0 {
					d.rcvQ = d.rcvQ[1:]
				}
			}
		}
		d.mu.Unlock()
		if r.Op == msg.OpSockRecvDone || held {
			continue // posted, not called; or answered later
		}
		if err := d.ep.Send(m.From, kipc.Msg{Req: rep}); err != nil {
			return
		}
	}
}

// holdAccepts makes the door keep accept replies back from now on.
func (d *tcpDoor) holdAccepts() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hold = true
}

// releaseAccepts sends every held accept reply, each an OK naming child.
func (d *tcpDoor) releaseAccepts(t *testing.T, child uint32) {
	t.Helper()
	d.mu.Lock()
	held := d.held
	d.held = nil
	d.mu.Unlock()
	for _, m := range held {
		m.Req.Arg[0] = uint64(child)
		if err := d.ep.Send(m.From, kipc.Msg{Req: m.Req}); err != nil {
			t.Fatal(err)
		}
	}
}

// closed returns the sockets the door was asked to close, in order.
func (d *tcpDoor) closed() []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]uint32(nil), d.closes...)
}

// deliver queues data as one received segment held in pool.
func (d *tcpDoor) deliver(t *testing.T, pool *shm.Pool, data []byte) {
	t.Helper()
	ptr, buf, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, data)
	d.mu.Lock()
	d.rcvQ = append(d.rcvQ, ptr.Slice(0, uint32(len(data))))
	d.mu.Unlock()
}

// edge posts a readiness event for flow to its subscriber.
func (d *tcpDoor) edge(t *testing.T, flow uint32, bits uint64) {
	t.Helper()
	d.mu.Lock()
	app := d.app
	d.mu.Unlock()
	ev := msg.Req{Op: msg.OpSockEvent, Flow: flow}
	ev.Arg[0] = bits
	if err := d.ep.Send(app, kipc.Msg{Req: ev}); err != nil {
		t.Fatal(err)
	}
}

// count returns how many op requests the door has answered.
func (d *tcpDoor) count(op msg.Op) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops[op]
}

// ready makes the next accept hand out child and every connect succeed.
func (d *tcpDoor) ready(child uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.children = append(d.children, child)
	d.connected = true
}

// state returns the acknowledgements so far and the bytes still queued.
func (d *tcpDoor) state() (acks []uint64, queued int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.rcvQ {
		queued += int(p.Len)
	}
	return append([]uint64(nil), d.acks...), queued
}

func tcpSocketOverDoor(t *testing.T) (*Socket, *tcpDoor, *wiring.Hub) {
	t.Helper()
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	door := newTCPDoor(t, hub)
	c, err := NewClient(hub, "recv-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s, err := c.Socket(TCP)
	if err != nil {
		t.Fatal(err)
	}
	s.SetNonblock(true)
	return s, door, hub
}

// A read shorter than what the stack delivered takes its bytes and
// acknowledges exactly those; the rest comes back, byte-exact, on the reads
// that follow — across view boundaries, and across the MaxPtrs views one
// reply can carry.
func TestShortReadsReturnTheRestOnLaterReads(t *testing.T) {
	s, door, hub := tcpSocketOverDoor(t)
	pool, err := hub.Space.NewPool("ip-rx", 2048, 32)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for i := 0; i < msg.MaxPtrs+6; i++ {
		seg := make([]byte, 1+(i*397)%1460)
		for j := range seg {
			seg[j] = byte(len(stream) + j*7)
		}
		door.deliver(t, pool, seg)
		stream = append(stream, seg...)
	}

	var got []byte
	var wantAcks []uint64
	for i, sizes := 0, []int{1, 700, 1460, 5, 4000, 64 << 10}; len(got) < len(stream); i++ {
		p := make([]byte, sizes[i%len(sizes)])
		n, err := s.Recv(p)
		if err != nil || n == 0 {
			t.Fatalf("read %d after %d of %d bytes: n=%d err=%v", i, len(got), len(stream), n, err)
		}
		got = append(got, p[:n]...)
		wantAcks = append(wantAcks, uint64(n))
	}
	if !bytes.Equal(got, stream) {
		t.Fatal("stream differs from what was delivered")
	}
	// The door handles messages in order, so one more call says every
	// acknowledgement before it has been counted.
	if _, err := s.Recv(make([]byte, 1)); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("Recv on the drained queue: %v, want ErrWouldBlock", err)
	}
	acks, queued := door.state()
	if queued != 0 {
		t.Fatalf("%d bytes still queued in the engine after all were read", queued)
	}
	if !slices.Equal(acks, wantAcks) {
		t.Fatalf("acknowledgements %v, want one per read, of the bytes it returned: %v", acks, wantAcks)
	}
}

// A view whose pool is gone (its owner restarted) ends the read there: what
// was copied before it is returned and acknowledged, nothing after it is.
func TestStaleViewAcknowledgesOnlyWhatWasCopied(t *testing.T) {
	s, door, hub := tcpSocketOverDoor(t)
	live, err := hub.Space.NewPool("ip-rx", 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := hub.Space.NewPool("ip-rx-old", 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	door.deliver(t, live, bytes.Repeat([]byte("a"), 1000))
	door.deliver(t, dead, bytes.Repeat([]byte("b"), 900))
	door.deliver(t, live, bytes.Repeat([]byte("c"), 800))
	hub.Space.Drop(dead.ID())

	p := make([]byte, 4096)
	n, err := s.Recv(p)
	if err != nil || !bytes.Equal(p[:n], bytes.Repeat([]byte("a"), 1000)) {
		t.Fatalf("Recv = %d, %v; want the 1000 bytes before the stale view", n, err)
	}
	// The next read starts at the stale view (see below); as a call it also
	// flushes the acknowledgement, see above.
	if _, err := s.Recv(p); !errors.Is(err, ErrAborted) {
		t.Fatalf("Recv at the stale view: %v, want ErrAborted", err)
	}
	acks, queued := door.state()
	if len(acks) < 1 || acks[0] != 1000 || queued != 900+800 {
		t.Fatalf("acknowledged %v with %d bytes left queued; want 1000 and 1700", acks, queued)
	}
}

// A read whose first view is stale copies nothing. That is not end of
// stream: the bytes are gone, so the read fails with ErrAborted, which the
// net.Conn adapter passes on instead of io.EOF, and nothing is consumed.
func TestStaleFirstViewIsAbortedNotEOF(t *testing.T) {
	s, door, hub := tcpSocketOverDoor(t)
	live, err := hub.Space.NewPool("ip-rx", 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := hub.Space.NewPool("ip-rx-old", 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	door.deliver(t, dead, bytes.Repeat([]byte("b"), 900))
	door.deliver(t, live, bytes.Repeat([]byte("c"), 800))
	hub.Space.Drop(dead.ID())

	p := make([]byte, 4096)
	for i := 0; i < 2; i++ {
		if n, err := NewConn(s).Read(p); n != 0 || !errors.Is(err, ErrAborted) {
			t.Fatalf("read %d = %d, %v; want 0, ErrAborted", i, n, err)
		}
	}
	acks, queued := door.state()
	if slices.ContainsFunc(acks, func(a uint64) bool { return a != 0 }) || queued != 900+800 {
		t.Fatalf("acknowledged %v with %d bytes left queued; want nothing and 1700", acks, queued)
	}
}

// An accept abandoned at its deadline is still completed by the stack: the
// late OK names a child the application will never learn about, so the
// client closes it from its pump.
func TestAbandonedAcceptClosesItsLateChild(t *testing.T) {
	s, door, _ := tcpSocketOverDoor(t)
	door.holdAccepts()
	if err := s.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Accept(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Accept past its deadline: %v, want ErrTimeout", err)
	}
	for deadline := time.Now().Add(5 * time.Second); door.count(msg.OpSockAccept) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the door never got the accept")
		}
	}
	const child = 42
	door.releaseAccepts(t, child)
	for deadline := time.Now().Add(5 * time.Second); !slices.Contains(door.closed(), child); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the door saw closes of %v, never of the late child %d", door.closed(), child)
		}
	}
}

// A call the stack never answers fails when CallTimeout runs out, with an
// error that names the call (its ID, op and flow, and the wait) and is
// still ErrTimeout and a net.Error timeout. A call cut short by the
// caller's own deadline keeps the plain ErrTimeout.
func TestCallTimeoutNamesTheCall(t *testing.T) {
	s, door, _ := tcpSocketOverDoor(t)
	door.holdAccepts()
	s.c.CallTimeout = 30 * time.Millisecond
	_, err := s.Accept()
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() || !errors.Is(err, ErrTimeout) {
		t.Fatalf("Accept with its reply held back: %v, want a net.Error timeout that is ErrTimeout", err)
	}
	if want := fmt.Sprintf("(%v, flow %d) unanswered after 30ms", msg.OpSockAccept, s.id); !strings.HasPrefix(err.Error(), "sock: call ") || !strings.Contains(err.Error(), want) {
		t.Fatalf("Accept's error %q does not name the call: want %q in it", err, want)
	}
	s.c.CallTimeout = time.Minute
	if err := s.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Accept(); err != ErrTimeout {
		t.Fatalf("Accept past its own deadline: %v, want the plain ErrTimeout", err)
	}
}
