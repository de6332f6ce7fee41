package layers

import (
	"errors"
	"fmt"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/tcpeng"
)

// tcpPipe stands in for the IP layer between two TCP engines, as
// tcpeng_test.go does: an OpIPSend from one engine becomes an OpIPDeliver
// to the other, the segment copied into a receive pool as a NIC's DMA
// would. Every call into an engine is timed on that engine's stopwatch; the
// pipe's own work (the copy, the bookkeeping) is not.
type tcpPipe struct {
	space    *shm.Space
	eng      [2]*tcpeng.Engine
	ip       [2]netpkt.IPAddr
	bufs     [2]map[uint32]*sockbuf.Buf
	front    [2][]msg.Req
	sw       [2]stopwatch // time inside eng[i], all calls
	ackSW    stopwatch    // time inside eng[0].FromIP for segments from eng[1]
	rx       *shm.Pool
	inFlight map[uint64]shm.RichPtr
	nextID   uint64
	now      time.Time
	segs     [2]int // segments sent by eng[i]
}

func newTCPPipe() (*tcpPipe, error) {
	space := shm.NewSpace()
	rx, err := space.NewPool("pipe.rx", 2048, 4096)
	if err != nil {
		return nil, err
	}
	p := &tcpPipe{
		space: space, rx: rx, inFlight: map[uint64]shm.RichPtr{},
		ip:  [2]netpkt.IPAddr{{10, 0, 0, 1}, {10, 0, 0, 2}},
		now: time.Unix(1_000_000, 0), // virtual: the engines are pure in time
	}
	for i := range p.eng {
		hdr, err := space.NewPool(fmt.Sprintf("tcp%d.hdr", i), 128, 8192)
		if err != nil {
			return nil, err
		}
		bufs := map[uint32]*sockbuf.Buf{}
		p.bufs[i] = bufs
		p.eng[i] = tcpeng.New(tcpeng.Config{
			Space: space, LocalIP: p.ip[i],
			PublishBuf:   func(sock uint32, b *sockbuf.Buf) { bufs[sock] = b },
			UnpublishBuf: func(sock uint32) { delete(bufs, sock) },
			SaveState:    func([]byte) {},
		}, hdr)
	}
	return p, nil
}

// step moves all pending traffic once and advances virtual time.
func (p *tcpPipe) step() bool {
	moved := p.move(0) || p.move(1)
	for i := range p.eng {
		i := i
		p.sw[i].time(func() { p.front[i] = append(p.front[i], p.eng[i].DrainToFront()...) })
	}
	p.now = p.now.Add(100 * time.Microsecond)
	for i := range p.eng {
		i := i
		p.sw[i].time(func() { p.eng[i].Tick(p.now) })
	}
	return moved
}

// move carries engine from's output to the other engine.
func (p *tcpPipe) move(from int) bool {
	to := 1 - from
	var reqs []msg.Req
	p.sw[from].time(func() { reqs = p.eng[from].DrainToIP() })
	for _, r := range reqs {
		switch r.Op {
		case msg.OpIPSend:
			st := msg.StatusOK
			if pkt, err := netpkt.Resolve(p.space, r.Chain()); err != nil {
				st = msg.StatusErrNoBufs
			} else if !p.deliver(from, to, pkt.Bytes()) {
				st = msg.StatusErrNoBufs
			}
			done := msg.Req{ID: r.ID, Op: msg.OpIPSendDone, Status: st}
			p.sw[from].time(func() { p.eng[from].FromIP(done, p.now) })
			p.segs[from]++
		case msg.OpIPDeliverDone:
			if ptr, ok := p.inFlight[r.ID]; ok {
				delete(p.inFlight, r.ID)
				_ = p.rx.Free(ptr) // the pipe's own chunk; cannot be stale
			}
		default:
			// A TCP engine sends IP nothing else.
		}
	}
	return len(reqs) > 0
}

func (p *tcpPipe) deliver(from, to int, seg []byte) bool {
	ptr, buf, err := p.rx.Alloc()
	if err != nil {
		return false
	}
	copy(buf, seg)
	p.nextID++
	p.inFlight[p.nextID] = ptr
	req := msg.Req{ID: p.nextID, Op: msg.OpIPDeliver}
	req.SetChain([]shm.RichPtr{ptr.Slice(0, uint32(len(seg)))})
	req.Arg[1] = uint64(p.ip[from].U32())
	req.Arg[2] = uint64(p.ip[to].U32())
	sw := &p.sw[to]
	t := time.Now()
	p.eng[to].FromIP(req, p.now)
	d := time.Since(t)
	sw.total += d
	sw.calls++
	if to == 0 {
		p.ackSW.total += d
		p.ackSW.calls++
	}
	return true
}

var errNoReply = errors.New("no reply within the step budget")

// call issues a front request to engine i and pumps the pipe until its
// reply appears.
func (p *tcpPipe) call(i int, r msg.Req) (msg.Req, error) {
	p.nextID++
	r.ID = p.nextID
	p.sw[i].time(func() { p.eng[i].FromFront(r, p.now) })
	return p.await(i, r.ID)
}

func (p *tcpPipe) await(i int, id uint64) (msg.Req, error) {
	for n := 0; n < 50000; n++ {
		for j, rep := range p.front[i] {
			if rep.ID == id {
				p.front[i] = append(p.front[i][:j], p.front[i][j+1:]...)
				return rep, nil
			}
		}
		p.step()
	}
	return msg.Req{}, errNoReply
}

func (p *tcpPipe) ok(i int, r msg.Req) error {
	rep, err := p.call(i, r)
	if err != nil {
		return fmt.Errorf("%v: %w", r.Op, err)
	}
	if rep.Status != msg.StatusOK {
		return fmt.Errorf("%v: status %d", r.Op, rep.Status)
	}
	return nil
}

// listen opens a listening socket on engine 1.
func (p *tcpPipe) listen(port uint16) (uint32, error) {
	rep, err := p.call(1, msg.Req{Op: msg.OpSockCreate})
	if err != nil {
		return 0, err
	}
	l := rep.Flow
	r := msg.Req{Op: msg.OpSockBind, Flow: l}
	r.Arg[0] = uint64(port)
	if err := p.ok(1, r); err != nil {
		return 0, err
	}
	r = msg.Req{Op: msg.OpSockListen, Flow: l}
	r.Arg[0] = 64
	return l, p.ok(1, r)
}

// connect opens a socket on engine 0, connects it to the listener and
// accepts it on engine 1; it returns (client socket, accepted socket).
func (p *tcpPipe) connect(l uint32, port uint16) (uint32, uint32, error) {
	rep, err := p.call(0, msg.Req{Op: msg.OpSockCreate})
	if err != nil {
		return 0, 0, err
	}
	c := rep.Flow
	p.nextID++
	acceptID := p.nextID
	acc := msg.Req{ID: acceptID, Op: msg.OpSockAccept, Flow: l}
	p.sw[1].time(func() { p.eng[1].FromFront(acc, p.now) }) // parks until the SYN lands
	r := msg.Req{Op: msg.OpSockConnect, Flow: c}
	r.Arg[0] = uint64(p.ip[1].U32())
	r.Arg[1] = uint64(port)
	if err := p.ok(0, r); err != nil {
		return 0, 0, err
	}
	rep, err = p.await(1, acceptID)
	if err != nil {
		return 0, 0, fmt.Errorf("accept: %w", err)
	}
	if rep.Status != msg.StatusOK {
		return 0, 0, fmt.Errorf("accept: status %d", rep.Status)
	}
	return c, uint32(rep.Arg[0]), nil
}

// send pushes data through sock on engine 0, as internal/sock would.
func (p *tcpPipe) send(sock uint32, data []byte) error {
	if p.bufs[0][sock] == nil {
		if err := p.ok(0, msg.Req{Op: msg.OpSockBufEnsure, Flow: sock}); err != nil {
			return err
		}
	}
	buf := p.bufs[0][sock]
	if buf == nil {
		return errors.New("no socket buffer published")
	}
	for off, idle := 0, 0; off < len(data); {
		var ptrs []shm.RichPtr
		for len(ptrs) < msg.MaxPtrs-1 && off < len(data) {
			chunk, ok := buf.Get()
			if !ok {
				break
			}
			n := min(len(data)-off, buf.ChunkSize())
			ptr, err := buf.Write(chunk, data[off:off+n])
			if err != nil {
				return err
			}
			ptrs = append(ptrs, ptr)
			off += n
		}
		if len(ptrs) == 0 {
			// Buffer exhausted: pump so the peer's ACKs recycle chunks.
			if idle++; idle > 50000 {
				return errors.New("send buffer never drained")
			}
			p.step()
			continue
		}
		idle = 0
		r := msg.Req{Op: msg.OpSockSend, Flow: sock}
		r.SetChain(ptrs)
		if err := p.ok(0, r); err != nil {
			return err
		}
	}
	return nil
}

// recv pulls n bytes from sock on engine 1 and discards them.
func (p *tcpPipe) recv(sock uint32, n int) error {
	for got := 0; got < n; {
		rep, err := p.call(1, msg.Req{Op: msg.OpSockRecv, Flow: sock})
		if err != nil {
			return err
		}
		if rep.Op != msg.OpSockRecvData || rep.Status != msg.StatusOK || rep.Arg[0] == 0 {
			return fmt.Errorf("recv: op %v status %d len %d", rep.Op, rep.Status, rep.Arg[0])
		}
		m := 0
		for _, ptr := range rep.Chain() {
			m += int(ptr.Len)
		}
		done := msg.Req{Op: msg.OpSockRecvDone, Flow: sock}
		done.Arg[0] = uint64(m)
		p.sw[1].time(func() { p.eng[1].FromFront(done, p.now) })
		p.step()
		got += m
	}
	return nil
}

// closeBoth closes both ends of a connection and pumps until the engines
// have forgotten it (TIME-WAIT runs out in virtual time).
func (p *tcpPipe) closeBoth(c, child uint32) error {
	if err := p.ok(0, msg.Req{Op: msg.OpSockClose, Flow: c}); err != nil {
		return err
	}
	if err := p.ok(1, msg.Req{Op: msg.OpSockClose, Flow: child}); err != nil {
		return err
	}
	for n := 0; n < 50000; n++ {
		_, a := p.eng[0].SocketState(c)
		_, b := p.eng[1].SocketState(child)
		if !a && !b {
			return nil
		}
		p.step()
		p.now = p.now.Add(time.Millisecond)
	}
	return errors.New("connection never left TIME-WAIT")
}

func (p *tcpPipe) resetClocks() {
	p.sw[0].reset()
	p.sw[1].reset()
	p.ackSW.reset()
	p.segs = [2]int{}
}

// driveTCP measures the TCP engine: per-segment cost on both sides of a
// bulk transfer (TSO off, so one request per MSS segment, the bulk_mss
// shape), connection set-up and tear-down, the idle timer tick, and the two
// state codecs at 1000 connections.
func driveTCP(b *bench) error {
	p, err := newTCPPipe()
	if err != nil {
		return err
	}
	const port = 9000
	l, err := p.listen(port)
	if err != nil {
		return err
	}
	c, child, err := p.connect(l, port)
	if err != nil {
		return err
	}
	data := make([]byte, 64*1024)
	var stepErr error
	transfer := func() int {
		if stepErr == nil {
			stepErr = p.send(c, data)
		}
		if stepErr == nil {
			stepErr = p.recv(child, len(data))
		}
		return 1
	}
	transfer()
	p.resetClocks()
	bulk := b.run("tcpeng.bulk", transfer)
	if stepErr != nil {
		return fmt.Errorf("bulk transfer: %w", stepErr)
	}
	dataSegs := float64(max(p.segs[0], 1))
	b.rep.add("tcpeng.tx_ns_per_seg", float64(p.sw[0].total-p.ackSW.total)/dataSegs, "ns")
	b.rep.add("tcpeng.rx_ns_per_seg", float64(p.sw[1].total)/dataSegs, "ns")
	b.rep.add("tcpeng.ack_ns", float64(p.ackSW.total)/float64(max(p.ackSW.calls, 1)), "ns")
	b.rep.add("tcpeng.allocs_per_seg", bulk.allocs*float64(bulk.units)/dataSegs, "count")

	p.resetClocks()
	conns := b.run("tcpeng.conn", func() int {
		if stepErr != nil {
			return 1
		}
		var c2, ch2 uint32
		if c2, ch2, stepErr = p.connect(l, port); stepErr == nil {
			stepErr = p.closeBoth(c2, ch2)
		}
		return 1
	})
	if stepErr != nil {
		return fmt.Errorf("connection cycle: %w", stepErr)
	}
	b.rep.add("tcpeng.conn_ns", float64(p.sw[0].total+p.sw[1].total)/float64(conns.units), "ns")

	for i := 0; i < 1000; i++ {
		if _, _, err := p.connect(l, port); err != nil {
			return fmt.Errorf("idle connection %d: %w", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		p.step() // let the handshakes' last ACKs and timers settle
	}
	tick := b.run("tcpeng.tick", func() int {
		p.now = p.now.Add(time.Millisecond)
		p.eng[0].Tick(p.now)
		return 1
	})
	b.rep.add("tcpeng.tick_ns_idle1k", tick.ns, "ns")
	save := b.run("tcpeng.savestate", func() int {
		if _, err := p.eng[0].SaveState(); err != nil && stepErr == nil {
			stepErr = err
		}
		return 1
	})
	b.rep.add("tcpeng.savestate_us_1k", save.ns/1e3, "us")
	handoff := b.run("tcpeng.handoff", func() int {
		if _, _, err := p.eng[0].HandoffState(); err != nil && stepErr == nil {
			stepErr = err
		}
		return 1
	})
	b.rep.add("tcpeng.handoff_us_1k", handoff.ns/1e3, "us")
	return stepErr
}
