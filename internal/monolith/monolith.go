// Package monolith runs the same protocol engines (tcpeng, udpeng, ipeng,
// pfeng) as ONE component, with direct in-process hand-offs instead of
// channels. It produces three of Table II's comparison rows:
//
//   - CostModelNone ("Linux" row 7): everything direct-call, offloads on,
//     no IPC of any kind — the monolithic upper bound.
//   - CostModelSyscall (rows 4-5, "1 server stack + SYSCALL"): one stack
//     server; application calls pay one kernel round trip, internal
//     hand-offs are direct.
//   - CostModelSyncIPC (row 1, "Minix 3"): every packet hop between stack
//     and driver additionally pays synchronous kernel IPC with message
//     copies and context switches on a time-shared core, and offloads are
//     unavailable — the original MINIX 3 configuration.
//
// docs/ARCHITECTURE.md "Substitutions and non-goals" lists this as an
// approximation: the paper's single-server
// stack still used channels to reach the drivers; here driver hand-off is
// a direct call plus an explicit cost model. The *ordering* of rows is
// preserved because the modelled costs are the measured ones from §IV.
package monolith

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"newtos/internal/channel"
	"newtos/internal/ipeng"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/pfeng"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/tcpeng"
	"newtos/internal/udpeng"
)

// CostModel selects the simulated IPC regime.
type CostModel int

// Cost models.
const (
	// CostModelNone is the direct-call monolith (the "Linux" row).
	CostModelNone CostModel = iota
	// CostModelSyscall charges one kernel round trip per application call
	// (the single-server multiserver rows).
	CostModelSyscall
	// CostModelSyncIPC additionally charges synchronous kernel IPC with
	// copies and context switches for every packet hop to/from the
	// drivers (the original MINIX 3 row).
	CostModelSyncIPC
)

// Config assembles a monolithic stack.
type Config struct {
	Ifaces  []ipeng.IfaceConfig
	Offload bool
	TSO     bool
	PF      bool
	Cost    CostModel
	Kernel  kipc.Config
}

// Stack is one monolithic stack instance over a set of devices.
type Stack struct {
	cfg   Config
	space *shm.Space
	kern  *kipc.Kernel

	mu      sync.Mutex
	cond    *sync.Cond
	tcp     *tcpeng.Engine
	udp     *udpeng.Engine
	ip      *ipeng.Engine
	pf      *pfeng.Engine
	devices map[string]*nic.Device
	bufs    map[string]*sockbuf.Buf // "tcp/1234" -> buf
	replies map[uint64]msg.Req
	nextID  uint64

	stop chan struct{}
	done chan struct{}
}

// New builds and starts a monolithic stack. Devices must be constructed
// against space.
func New(cfg Config, space *shm.Space, devices map[string]*nic.Device) (*Stack, error) {
	s := &Stack{
		cfg:     cfg,
		space:   space,
		kern:    kipc.New(cfg.Kernel),
		devices: devices,
		bufs:    make(map[string]*sockbuf.Buf),
		replies: make(map[uint64]msg.Req),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)

	ipe, err := ipeng.New(ipeng.Config{
		Space: space, Ifaces: cfg.Ifaces, PFEnabled: cfg.PF, Offload: cfg.Offload,
	})
	if err != nil {
		return nil, fmt.Errorf("monolith: %w", err)
	}
	s.ip = ipe

	tcpHdr, err := space.NewPool("mono.tcp.hdr", 128, 8192)
	if err != nil {
		return nil, err
	}
	localIP := netpkt.IPAddr{}
	if len(cfg.Ifaces) > 0 {
		localIP = cfg.Ifaces[0].IP
	}
	srcFor := func(dst netpkt.IPAddr) netpkt.IPAddr {
		for _, ic := range cfg.Ifaces {
			if dst.InSubnet(ic.IP, ic.MaskBits) {
				return ic.IP
			}
		}
		return localIP
	}
	s.tcp = tcpeng.New(tcpeng.Config{
		Space: space, LocalIP: localIP, SrcFor: srcFor, Offload: cfg.Offload, TSO: cfg.TSO,
		PublishBuf: func(sock uint32, b *sockbuf.Buf) {
			s.bufs[fmt.Sprintf("tcp/%d", sock)] = b
		},
	}, tcpHdr)

	udpHdr, err := space.NewPool("mono.udp.hdr", 128, 4096)
	if err != nil {
		return nil, err
	}
	s.udp = udpeng.New(udpeng.Config{
		Space: space, LocalIP: localIP, SrcFor: srcFor, Offload: cfg.Offload,
		PublishBuf: func(sock uint32, b *sockbuf.Buf) {
			s.bufs[fmt.Sprintf("udp/%d", sock)] = b
		},
	}, udpHdr)

	if cfg.PF {
		s.pf = pfeng.New(0)
	}

	for name, dev := range devices {
		s.ip.SetMAC(name, dev.MAC())
		s.ip.SupplyDriver(name)
	}

	go s.loop()
	return s, nil
}

// AddRule installs a packet-filter rule.
func (s *Stack) AddRule(r pfeng.Rule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pf != nil {
		s.pf.AddRule(r)
	}
}

// Close stops the stack loop.
func (s *Stack) Close() {
	close(s.stop)
	<-s.done
}

// loop polls devices and timers.
func (s *Stack) loop() {
	defer close(s.done)
	var backoff channel.Backoff
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		s.mu.Lock()
		now := time.Now()
		worked := s.pollDevicesLocked(now)
		s.tcp.Tick(now)
		s.pumpLocked(now)
		if len(s.replies) > 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if worked {
			backoff.Reset()
			continue
		}
		backoff.Wait()
	}
}

// chargeHop models one stack<->driver hand-off under the sync-IPC regime:
// a synchronous rendezvous is two traps (send + receive), a cross-space
// copy of the packet, and — on a single time-shared CPU — two context
// switches (into the receiver and back when it replies).
func (s *Stack) chargeHop(bytes int) {
	if s.cfg.Cost != CostModelSyncIPC {
		return
	}
	s.kern.TrapHot()
	s.kern.TrapHot()
	// Copy cost through a grant of `bytes`.
	spinDur := time.Duration(bytes) * s.cfg.Kernel.CopyCostPerKB / 1024
	spinFor(spinDur)
	spinFor(2 * s.cfg.Kernel.ContextSwitchCost)
}

func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}

// pollDevicesLocked moves device completions into the IP engine.
func (s *Stack) pollDevicesLocked(now time.Time) bool {
	worked := false
	for name, dev := range s.devices {
		for _, c := range dev.CollectTx() {
			st := msg.StatusOK
			if !c.OK {
				st = msg.StatusErrNoBufs
			}
			s.ip.FromDriver(name, msg.Req{ID: c.Cookie, Op: msg.OpTxDone, Status: st}, now)
			worked = true
		}
		for _, c := range dev.CollectRx() {
			if !c.CsumOK {
				continue
			}
			s.chargeHop(c.Len)
			r := msg.Req{Op: msg.OpRxPacket}
			r.SetChain([]shm.RichPtr{c.Ptr})
			r.Arg[0] = uint64(c.Len)
			r.Arg[1] = msg.FlagCsumOK
			s.ip.FromDriver(name, r, now)
			worked = true
		}
	}
	return worked
}

// pumpLocked circulates messages between the engines until quiescent.
func (s *Stack) pumpLocked(now time.Time) {
	for iter := 0; iter < 64; iter++ {
		moved := false
		// IP -> drivers.
		for name, dev := range s.devices {
			for _, r := range s.ip.DrainToDriver(name) {
				moved = true
				switch r.Op {
				case msg.OpTxSubmit:
					s.chargeHop(r.ChainLen())
					desc := nic.TxDesc{
						Ptrs:    append([]shm.RichPtr(nil), r.Chain()...),
						Cookie:  r.ID,
						SegSize: uint16(r.Arg[1]),
					}
					if r.Arg[0]&msg.OffloadCsumIP != 0 {
						desc.Flags |= nic.TxCsumIP
					}
					if r.Arg[0]&msg.OffloadCsumL4 != 0 {
						desc.Flags |= nic.TxCsumL4
					}
					if r.Arg[0]&msg.OffloadTSO != 0 {
						desc.Flags |= nic.TxTSO
					}
					if err := dev.PostTx(desc); err != nil {
						s.ip.FromDriver(name, msg.Req{ID: r.ID, Op: msg.OpTxDone, Status: msg.StatusErrNoBufs}, now)
					}
				case msg.OpRxSupply:
					_ = dev.PostRx(r.Ptrs[0])
				default:
					// The IP→driver edge only carries TxSubmit/RxSupply.
				}
			}
		}
		// IP <-> PF (direct function call; verdict is synchronous here).
		for _, q := range s.ip.DrainToPF() {
			moved = true
			verdict := int32(0)
			if s.pf != nil {
				view, err := s.space.View(q.Ptrs[0])
				dir := pfeng.In
				if q.Arg[0] == 1 {
					dir = pfeng.Out
				}
				iface := msg.UnpackIfaceName(q.Arg[1])
				if err != nil || s.pf.VerdictPacket(dir, iface, view, now) != pfeng.Pass {
					verdict = 1
				}
			}
			s.ip.FromPF(msg.Req{ID: q.ID, Op: msg.OpPFVerdict, Status: verdict}, now)
		}
		// IP <-> transports.
		for _, r := range s.ip.DrainToTCP() {
			moved = true
			s.tcp.FromIP(r, now)
		}
		for _, r := range s.ip.DrainToUDP() {
			moved = true
			s.udp.FromIP(r)
		}
		for _, r := range s.tcp.DrainToIP() {
			moved = true
			s.ip.FromTransport(netpkt.ProtoTCP, r, now)
		}
		for _, r := range s.udp.DrainToIP() {
			moved = true
			s.ip.FromTransport(netpkt.ProtoUDP, r, now)
		}
		// Transport replies to the application.
		for _, r := range s.tcp.DrainToFront() {
			moved = true
			s.replies[r.ID] = r
		}
		for _, r := range s.udp.DrainToFront() {
			moved = true
			s.replies[r.ID] = r
		}
		if !moved {
			return
		}
	}
}

// ErrTimeout reports a blocked call that never completed.
var ErrTimeout = errors.New("monolith: call timed out")

// call submits one application request and blocks for its reply.
func (s *Stack) call(proto uint8, r msg.Req) (msg.Req, error) {
	if s.cfg.Cost != CostModelNone {
		// One kernel round trip per syscall (trap in, trap out).
		s.kern.TrapHot()
		defer s.kern.TrapHot()
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	r.ID = id
	now := time.Now()
	if proto == netpkt.ProtoTCP {
		s.tcp.FromFront(r, now)
	} else {
		s.udp.FromFront(r)
	}
	s.pumpLocked(now)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if rep, ok := s.replies[id]; ok {
			delete(s.replies, id)
			s.mu.Unlock()
			return rep, nil
		}
		if time.Now().After(deadline) {
			s.mu.Unlock()
			return msg.Req{}, ErrTimeout
		}
		// The loop goroutine broadcasts whenever replies land.
		s.cond.Wait()
	}
}

// post submits a request expecting no reply.
func (s *Stack) post(proto uint8, r msg.Req) {
	s.mu.Lock()
	s.nextID++
	r.ID = s.nextID
	now := time.Now()
	if proto == netpkt.ProtoTCP {
		s.tcp.FromFront(r, now)
	} else {
		s.udp.FromFront(r)
	}
	s.pumpLocked(now)
	s.mu.Unlock()
}

// Conn is a blocking application socket on the monolithic stack; it mirrors
// the sock.Socket API so benchmarks drive both stacks identically.
type Conn struct {
	s        *Stack
	proto    uint8
	id       uint32
	buf      *sockbuf.Buf
	leftover []byte
	eof      bool
}

// Socket opens a socket; proto is netpkt.ProtoTCP or ProtoUDP.
func (s *Stack) Socket(proto uint8) (*Conn, error) {
	rep, err := s.call(proto, msg.Req{Op: msg.OpSockCreate})
	if err != nil {
		return nil, err
	}
	if rep.Status != msg.StatusOK {
		return nil, fmt.Errorf("monolith: socket: status %d", rep.Status)
	}
	return &Conn{s: s, proto: proto, id: rep.Flow}, nil
}

// Bind binds to a local port.
func (c *Conn) Bind(port uint16) error {
	r := msg.Req{Op: msg.OpSockBind, Flow: c.id}
	r.Arg[0] = uint64(port)
	return c.simple(r)
}

// Listen starts accepting connections.
func (c *Conn) Listen(backlog int) error {
	r := msg.Req{Op: msg.OpSockListen, Flow: c.id}
	r.Arg[0] = uint64(backlog)
	return c.simple(r)
}

// Accept blocks for an inbound connection.
func (c *Conn) Accept() (*Conn, error) {
	rep, err := c.s.call(c.proto, msg.Req{Op: msg.OpSockAccept, Flow: c.id})
	if err != nil {
		return nil, err
	}
	if rep.Status != msg.StatusOK {
		return nil, fmt.Errorf("monolith: accept: status %d", rep.Status)
	}
	return &Conn{s: c.s, proto: c.proto, id: uint32(rep.Arg[0])}, nil
}

// Connect establishes a connection / default remote.
func (c *Conn) Connect(ip netpkt.IPAddr, port uint16) error {
	r := msg.Req{Op: msg.OpSockConnect, Flow: c.id}
	r.Arg[0] = uint64(ip.U32())
	r.Arg[1] = uint64(port)
	return c.simple(r)
}

// Close closes the socket.
func (c *Conn) Close() error {
	return c.simple(msg.Req{Op: msg.OpSockClose, Flow: c.id})
}

func (c *Conn) simple(r msg.Req) error {
	rep, err := c.s.call(c.proto, r)
	if err != nil {
		return err
	}
	if rep.Status != msg.StatusOK {
		return fmt.Errorf("monolith: %v: status %d", r.Op, rep.Status)
	}
	return nil
}

func (c *Conn) fetchBuf() error {
	if c.buf != nil {
		return nil
	}
	key := fmt.Sprintf("tcp/%d", c.id)
	if c.proto == netpkt.ProtoUDP {
		key = fmt.Sprintf("udp/%d", c.id)
	}
	c.s.mu.Lock()
	buf := c.s.bufs[key]
	c.s.mu.Unlock()
	if buf == nil && c.proto == netpkt.ProtoTCP {
		// TCP provisions TX buffers lazily: ask the engine for one now.
		rep, err := c.s.call(c.proto, msg.Req{Op: msg.OpSockBufEnsure, Flow: c.id})
		if err != nil {
			return err
		}
		if rep.Status != msg.StatusOK {
			return fmt.Errorf("monolith: buf ensure: status %d", rep.Status)
		}
		c.s.mu.Lock()
		buf = c.s.bufs[key]
		c.s.mu.Unlock()
	}
	if buf == nil {
		return fmt.Errorf("monolith: no socket buffer for %d", c.id)
	}
	c.buf = buf
	return nil
}

// Send writes data, blocking for buffer space.
func (c *Conn) Send(data []byte) (int, error) {
	return c.SendTo(data, netpkt.IPAddr{}, 0)
}

// SendTo is Send with an explicit destination (UDP).
func (c *Conn) SendTo(data []byte, dst netpkt.IPAddr, port uint16) (int, error) {
	if err := c.fetchBuf(); err != nil {
		return 0, err
	}
	total := 0
	for total < len(data) {
		var chain []shm.RichPtr
		staged := 0
		for len(chain) < msg.MaxPtrs-1 && total+staged < len(data) {
			chunk, ok := c.buf.Get()
			if !ok {
				break
			}
			n := len(data) - total - staged
			if n > c.buf.ChunkSize() {
				n = c.buf.ChunkSize()
			}
			ptr, err := c.buf.Write(chunk, data[total+staged:total+staged+n])
			if err != nil {
				return total, err
			}
			chain = append(chain, ptr)
			staged += n
		}
		if len(chain) == 0 {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		r := msg.Req{Op: msg.OpSockSend, Flow: c.id}
		r.SetChain(chain)
		r.Arg[0] = uint64(dst.U32())
		r.Arg[1] = uint64(port)
		rep, err := c.s.call(c.proto, r)
		if err != nil {
			return total, err
		}
		switch rep.Status {
		case msg.StatusOK:
			total += staged
		case msg.StatusErrAgain, msg.StatusErrNoBufs:
			// Stack-side buffer exhaustion is backpressure, not an error:
			// the engine recycled the rejected chain, so retry once the
			// stack drains.
			time.Sleep(20 * time.Microsecond)
		default:
			return total, fmt.Errorf("monolith: send: status %d", rep.Status)
		}
	}
	return total, nil
}

// Recv reads up to len(p) bytes; (0, nil) is EOF.
func (c *Conn) Recv(p []byte) (int, error) {
	if len(c.leftover) > 0 {
		n := copy(p, c.leftover)
		c.leftover = c.leftover[n:]
		return n, nil
	}
	if c.eof {
		return 0, nil
	}
	rep, err := c.s.call(c.proto, msg.Req{Op: msg.OpSockRecv, Flow: c.id})
	if err != nil {
		return 0, err
	}
	if rep.Op == msg.OpSockReply {
		return 0, fmt.Errorf("monolith: recv: status %d", rep.Status)
	}
	total := int(rep.Arg[0])
	if total == 0 && c.proto == netpkt.ProtoTCP {
		c.eof = true
		return 0, nil
	}
	var all []byte
	for _, ptr := range rep.Chain() {
		if v, err := c.s.space.View(ptr); err == nil {
			all = append(all, v...)
		}
	}
	done := msg.Req{Op: msg.OpSockRecvDone, Flow: c.id}
	done.Arg[0] = uint64(len(all))
	if c.proto == netpkt.ProtoUDP {
		done.Arg[0] = rep.Arg[2]
	}
	c.s.post(c.proto, done)
	n := copy(p, all)
	if n < len(all) {
		c.leftover = append(c.leftover[:0], all[n:]...)
	}
	return n, nil
}

// TCPStats exposes the TCP engine counters (diagnostics, benchmarks).
func (s *Stack) TCPStats() tcpeng.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tcp.Stats()
}

// IPStats exposes the IP engine counters.
func (s *Stack) IPStats() ipeng.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ip.Stats()
}
