// Package ipeng is the IP/ICMP/ARP engine: routing, ARP resolution, ICMP
// echo, and the hand-off choreography that makes IP "the only component
// that communicates with drivers" (paper §V, Figure 3). Every packet —
// inbound and outbound — passes through the packet filter T junction
// before it proceeds; IP must see a verdict for each query, which is what
// makes PF crashes lossless.
//
// IP is the hub of the stack, and the engine is built as one: a single
// table of peers — every driver, PF, TCP, UDP, in that order —
// where each entry holds everything the hub keeps per neighbour: the
// request-database scope its in-flight work is tracked under, the action
// that runs when it crashes with work in flight, the output queue the
// server loop drains once per iteration, and (for TCP) the
// receive-coalescing run. Whatever the kind of neighbour, the boundary is
// the same triple: From(p, batch, now) feeds the engine what peer p sent,
// Drain(p) takes what the engine has for it, Restart(p, now) recovers from
// its reincarnation — abort exactly that peer's scope and nobody else's.
// Inside, each kind of message is built in one place (txSubmit, pfQuery,
// deliver, supply), and all of them leave through send.
//
// IP owns the receive pools the drivers DMA into and the header pool for
// outgoing frames, so it is also the component whose crash forces device
// resets (paper §V-D "IP").
//
// ipeng.go is the hub (peer table, triple, timers, saved state);
// tx.go the outbound path, rx.go the inbound one.
package ipeng

import (
	"fmt"
	"log"
	"time"

	"newtos/internal/channel"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/staterec"
)

// Tunables.
const (
	// RxBufsPerDriver is how many receive buffers IP keeps posted to each
	// driver (the device ring is refilled from these).
	RxBufsPerDriver = 192
	// RxChunkSize fits one MTU frame.
	RxChunkSize = 2048
	// HdrChunkSize holds eth+ip+l4 headers, ARP frames, and ICMP replies.
	HdrChunkSize = 2048
	arpTimeout   = 500 * time.Millisecond
	arpQueueCap  = 128
	// maxARPTries bounds resolution attempts per neighbor: after this many
	// unanswered requests the queued packets fail with StatusErrNoRoute and
	// their chunks are freed, instead of retrying forever and pinning up to
	// arpQueueCap chunks per neighbor per interface (which would also grow
	// the pools towards their caps for traffic that can never leave).
	maxARPTries = 5
	// hdrChunks is the header pool's base segment. It grows on demand to
	// hdrSegments segments: the historical worst-case complement of 4096.
	hdrChunks   = 1024
	hdrSegments = 4
	// rxSegments caps the RX pool's growth at 8× its base complement;
	// either pool keeps a grown segment for the rest of the incarnation.
	rxSegments = 8
)

// IfaceConfig is one interface's static configuration — the state the
// paper calls "very limited (static) ... basically the routing
// information", saved to the storage server and restored after a crash.
type IfaceConfig struct {
	Name     string
	IP       netpkt.IPAddr
	MaskBits int
	// GW is the next hop for off-subnet traffic leaving this interface;
	// zero means this interface only reaches its own subnet.
	GW netpkt.IPAddr
}

// Config wires the engine.
type Config struct {
	Space  *shm.Space
	Ifaces []IfaceConfig
	// PFEnabled routes every packet through the filter junction.
	PFEnabled bool
	// Offload requests device checksum offload (and enables TSO
	// pass-through from the transports).
	Offload bool
	// SaveState persists interface configuration.
	SaveState func(blob []byte)
}

// Stats counts engine activity.
type Stats struct {
	PktsOut, PktsIn         uint64
	BytesOut, BytesIn       uint64
	ARPRequests, ARPReplies uint64
	ICMPEchoes              uint64
	Blocked                 uint64
	DropsNoRoute            uint64
	DropsMalformed          uint64
	// DropsRingFull counts frames the device did not put on the wire: a
	// driver's OpTxDone whose status is not OK (a full wire queue, a link
	// down).
	DropsRingFull uint64
	TxResubmitted uint64
	PFResubmitted uint64
	// LinkDowns/LinkUps count link transitions reported by the drivers.
	LinkDowns, LinkUps uint64
	// Rerouted counts packets moved to another live interface when their
	// egress link died while they were parked awaiting ARP resolution.
	Rerouted uint64
	// ARPFailed counts packets failed back to their transport because the
	// next hop never answered maxARPTries ARP requests (or the link died
	// with no alternative route).
	ARPFailed uint64
	// RxPressure counts RX-buffer allocations that failed while supplying
	// a driver: each one is a receive buffer the device went without.
	RxPressure uint64
	// GRODeliveries counts merged (multi-segment) deliveries to TCP;
	// GROCoalesced counts the extra segments folded into them —
	// each one an OpIPDeliver/OpIPDeliverDone round trip saved.
	GRODeliveries uint64
	GROCoalesced  uint64
}

// PeerKind says what sits at the other end of one of IP's edges.
type PeerKind uint8

// Peer kinds, in the order the peer table lists them.
const (
	PeerDriver PeerKind = iota
	PeerPF
	PeerTCP
	PeerUDP
)

// Peer names one neighbour of the hub. Its index in Peers() is what From,
// Drain and Restart take.
type Peer struct {
	Kind PeerKind
	// Name is a driver's interface name; "pf", "tcp" or "udp" otherwise.
	Name string
}

// peer is everything the hub keeps per neighbour.
type peer struct {
	Peer
	// scope is the request-database destination this peer's in-flight work
	// is tracked under, and abort what happens to that work when the peer
	// restarts. Both are fixed when the table is laid out, so tracking a
	// request builds neither a string nor a closure.
	scope string
	abort channel.AbortAction
	// out accumulates across a whole loop iteration, so the peer receives
	// one batch — and pays one wakeup — per iteration, not one per request.
	out []msg.Req
	ifc *iface  // PeerDriver: the interface behind the driver
	gro groSlot // PeerTCP: the run of mergeable segments
	// spare is the array the last Drain handed out; the next Drain
	// continues out on it.
	spare []msg.Req
}

type iface struct {
	cfg IfaceConfig
	drv *peer
	// packedName is msg.PackIfaceName(cfg.Name), as PF queries carry it.
	packedName uint64
	mac        netpkt.MAC
	macOK      bool
	// linkUp mirrors the driver's last link event; the route table skips
	// interfaces whose link is down.
	linkUp bool
	arp    map[netpkt.IPAddr]netpkt.MAC
	// pending holds packets awaiting ARP resolution of a next hop.
	pending map[netpkt.IPAddr][]*outPkt
	arpSent map[netpkt.IPAddr]time.Time
	// arpTries counts unanswered ARP requests per next hop; at maxARPTries
	// the pending queue for that neighbor is failed and freed.
	arpTries map[netpkt.IPAddr]int
	// outstanding receive buffers supplied to the driver.
	rxOutstanding int
	// rxPressure counts resupply allocations this interface lost to pool
	// exhaustion; inPressure gates the once-per-episode log line.
	rxPressure uint64
	inPressure bool
}

func newIface(cfg IfaceConfig) *iface {
	return &iface{
		cfg:        cfg,
		packedName: msg.PackIfaceName(cfg.Name),
		linkUp:     true,
		arp:        make(map[netpkt.IPAddr]netpkt.MAC),
		pending:    make(map[netpkt.IPAddr][]*outPkt),
		arpSent:    make(map[netpkt.IPAddr]time.Time),
		arpTries:   make(map[netpkt.IPAddr]int),
	}
}

// forget clears the resolution state of one next hop and returns the
// packets that were parked behind it.
func (ifc *iface) forget(hop netpkt.IPAddr) []*outPkt {
	pend := ifc.pending[hop]
	delete(ifc.pending, hop)
	delete(ifc.arpSent, hop)
	delete(ifc.arpTries, hop)
	return pend
}

// Engine is the IP server's logic. Single-threaded.
type Engine struct {
	cfg     Config
	rxPool  *shm.Pool
	hdrPool *shm.Pool
	db      *channel.ReqDB
	ipid    uint16

	// peers is the one table of neighbours: drivers in cfg.Ifaces order
	// (which is also routing order), PF when enabled, TCP, UDP last. drv
	// is its driver stretch; pf (nil, at index -1, when the filter is off),
	// tcp and udp point into it.
	peers        []peer
	drv          []peer
	pf, tcp, udp *peer
	pfAt, tcpAt  int

	stats Stats
	now   time.Time
	// arpDue is the earliest instant an ARP request times out (a retry or
	// a give-up), zero with none outstanding.
	arpDue time.Time
}

// New creates an IP engine with fresh, elastic pools in space. Each
// incarnation creates new pools; old pools stay resolvable so transports
// holding references into a dead incarnation's pool can still read (the
// paper's "inherited address space"), they just can never be recycled.
func New(cfg Config) (*Engine, error) {
	rx, err := cfg.Space.NewPool("ip.rx", RxChunkSize, RxBufsPerDriver*8)
	if err != nil {
		return nil, fmt.Errorf("ipeng: rx pool: %w", err)
	}
	hdr, err := cfg.Space.NewPool("ip.hdr", HdrChunkSize, hdrChunks)
	if err != nil {
		return nil, fmt.Errorf("ipeng: hdr pool: %w", err)
	}
	e := &Engine{cfg: cfg, rxPool: rx, hdrPool: hdr, db: channel.NewReqDB()}
	e.layout(cfg.Ifaces)
	rx.SetElastic(shm.Elastic{MaxSegments: rxSegments})
	hdr.SetElastic(shm.Elastic{MaxSegments: hdrSegments})
	return e, nil
}

// layout builds the peer table for the given interfaces. Every abort
// action is a method value bound here, once: a driver that dies with a
// frame gets it again, a filter that dies with a query is asked again, a
// transport that dies with a delivery gives the buffers back. Interfaces
// that keep their name keep what was learned from their driver (MAC, link
// state), which outlives a configuration restore.
func (e *Engine) layout(ifaces []IfaceConfig) {
	old := e.drv
	resubmit, ask, recycle := e.txAborted, e.pfAborted, e.recycle
	// Never reallocated, so entries can be pointed at as they are added.
	e.peers = make([]peer, 0, len(ifaces)+3)
	add := func(p peer) *peer {
		e.peers = append(e.peers, p)
		return &e.peers[len(e.peers)-1]
	}
	for _, ic := range ifaces {
		d := add(peer{Peer: Peer{Kind: PeerDriver, Name: ic.Name}, scope: "drv/" + ic.Name, abort: resubmit, ifc: newIface(ic)})
		d.ifc.drv = d
		for i := range old {
			if o := old[i].ifc; o.cfg.Name == ic.Name {
				d.ifc.mac, d.ifc.macOK, d.ifc.linkUp = o.mac, o.macOK, o.linkUp
			}
		}
	}
	e.drv = e.peers
	e.pf, e.pfAt = nil, -1
	if e.cfg.PFEnabled {
		e.pfAt = len(e.peers)
		e.pf = add(peer{Peer: Peer{Kind: PeerPF, Name: "pf"}, scope: "pf", abort: ask})
	}
	e.tcpAt = len(e.peers)
	e.tcp = add(peer{Peer: Peer{Kind: PeerTCP, Name: "tcp"}, scope: "tcp", abort: recycle})
	e.udp = add(peer{Peer: Peer{Kind: PeerUDP, Name: "udp"}, scope: "udp", abort: recycle})
}

// Peers lists the engine's neighbours in table order: every driver in
// Config.Ifaces order, PF when enabled, TCP, UDP. The server
// loop exports one edge per entry and calls the triple by index.
func (e *Engine) Peers() []Peer {
	out := make([]Peer, len(e.peers))
	for i := range e.peers {
		out[i] = e.peers[i].Peer
	}
	return out
}

// peer resolves an index into the table; nil for an index outside it,
// which every entry point treats as "no such neighbour, nothing to do".
func (e *Engine) peer(p int) *peer {
	if p < 0 || p >= len(e.peers) {
		return nil
	}
	return &e.peers[p]
}

// driver returns the table index of the named interface's driver, -1 when
// there is no such interface.
func (e *Engine) driver(name string) int {
	for i := range e.drv {
		if e.drv[i].Name == name {
			return i
		}
	}
	return -1
}

// From feeds a drained batch from peer p through the engine.
func (e *Engine) From(p int, batch []msg.Req, now time.Time) {
	e.now = now
	src := e.peer(p)
	if src == nil {
		return
	}
	for i := range batch {
		r := &batch[i]
		switch src.Kind {
		case PeerDriver:
			e.fromDriver(src.ifc, r)
		case PeerPF:
			e.verdict(r)
		default:
			e.fromTransport(src, r)
		}
	}
	if src.Kind == PeerDriver {
		// The batch's frames took receive buffers off the device ring;
		// those still parked with PF or a transport are replaced now.
		e.supply(src.ifc, RxBufsPerDriver)
	}
}

// Drain returns what the engine has pending for peer p. A TCP peer's GRO
// run is closed first — coalescing never holds a segment past the loop
// iteration that received it. The returned slice is valid until the next
// Drain of the same peer.
func (e *Engine) Drain(p int) []msg.Req {
	to := e.peer(p)
	if to == nil {
		return nil
	}
	if to.Kind == PeerTCP {
		e.groFlush(to)
	}
	return msg.Drain(&to.out, &to.spare)
}

// Restart is IP's recovery role for the reincarnation of peer p: abort
// exactly that peer's scope. A driver is resent the frames the dead
// incarnation may not have transmitted ("in case of doubt, we prefer to
// send a few duplicates") and supplied a fresh receive complement; PF is
// asked every unanswered query again ("it can safely resubmit all
// unfinished requests without packet loss"); a transport's parked
// deliveries are dropped and their buffers recycled. Every other peer's
// in-flight work and output queue is left alone.
func (e *Engine) Restart(p int, now time.Time) {
	e.now = now
	dead := e.peer(p)
	if dead == nil {
		return
	}
	switch dead.Kind {
	case PeerDriver:
		dead.ifc.rxOutstanding = 0 // the posted buffers died with the ring
	case PeerTCP:
		// Segments still accumulating in the GRO run were never tracked.
		e.recycleRx(dead.gro.head)
		dead.gro = groSlot{}
	}
	e.db.AbortDest(dead.scope)
	if dead.Kind == PeerDriver {
		e.supply(dead.ifc, RxBufsPerDriver)
	}
}

// send queues one request for a peer and enters it in the request database
// under that peer's scope, with that peer's abort action.
func (e *Engine) send(to *peer, req *msg.Req, data any) {
	e.db.Track(req.ID, to.scope, data, to.abort)
	to.out = append(to.out, *req)
}

// The nine entry points below are spellings of the triple (SupplyDriver
// and SetMAC: of what a driver's Restart and OpDrvInfo do), kept only
// because the byte-frozen bench/layers/ip.go calls them by these names;
// they leave with ROADMAP's "unfreeze bench/".

func (e *Engine) FromDriver(name string, r msg.Req, now time.Time) {
	e.From(e.driver(name), []msg.Req{r}, now)
}
func (e *Engine) FromDriverBatch(name string, b []msg.Req, now time.Time) {
	e.From(e.driver(name), b, now)
}
func (e *Engine) FromPFBatch(b []msg.Req, now time.Time) { e.From(e.pfAt, b, now) }
func (e *Engine) FromTransportBatch(proto uint8, b []msg.Req, now time.Time) {
	if proto == netpkt.ProtoTCP {
		e.From(e.tcpAt, b, now)
	} else {
		e.From(len(e.peers)-1, b, now)
	}
}
func (e *Engine) DrainToDriver(name string) []msg.Req { return e.Drain(e.driver(name)) }
func (e *Engine) DrainToPF() []msg.Req                { return e.Drain(e.pfAt) }
func (e *Engine) DrainToTCP() []msg.Req               { return e.Drain(e.tcpAt) }
func (e *Engine) SupplyDriver(name string) {
	if d := e.peer(e.driver(name)); d != nil {
		e.supply(d.ifc, RxBufsPerDriver)
	}
}
func (e *Engine) SetMAC(name string, mac netpkt.MAC) {
	if d := e.peer(e.driver(name)); d != nil {
		d.ifc.mac, d.ifc.macOK = mac, true
	}
}

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// RxPressure returns how many RX-buffer allocations the named interface
// lost to pool exhaustion.
func (e *Engine) RxPressure(name string) uint64 {
	if d := e.peer(e.driver(name)); d != nil {
		return d.ifc.rxPressure
	}
	return 0
}

// LocalIP returns the first interface address (hosts in the evaluation
// have one address per interface, same-subnet wiring).
func (e *Engine) LocalIP() netpkt.IPAddr {
	if len(e.drv) == 0 {
		return netpkt.IPAddr{}
	}
	return e.drv[0].ifc.cfg.IP
}

// Tick runs the engine's timers that are due at now: ARP retries and
// give-ups for neighbors that never answer. With nothing due it is one
// comparison, so the server loop calls it once per iteration.
func (e *Engine) Tick(now time.Time) {
	e.now = now
	if !e.arpDue.IsZero() && !now.Before(e.arpDue) {
		e.arpSweep()
	}
}

// Deadline is when Tick next has work: the earliest ARP timeout, zero when
// none is pending. It is after the now of the last Tick.
func (e *Engine) Deadline() time.Time { return e.arpDue }

// earliest returns the earlier of two instants, a zero one being none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// supply posts up to n fresh receive buffers to ifc's driver, never past
// the RxBufsPerDriver complement (supplying past it would overflow the
// device ring).
func (e *Engine) supply(ifc *iface, n int) {
	for ; n > 0 && ifc.rxOutstanding < RxBufsPerDriver; n-- {
		ptr, ok := e.rxAlloc(ifc)
		if !ok {
			return // pool exhausted at the cap; counted by rxAlloc
		}
		req := msg.Req{ID: e.db.NewID(), Op: msg.OpRxSupply, NPtr: 1}
		req.Ptrs[0] = ptr
		ifc.drv.out = append(ifc.drv.out, req)
		ifc.rxOutstanding++
	}
}

// rxAlloc reserves one receive buffer for an interface. Exhaustion is never
// silent: every failed allocation is counted (per interface and in
// Stats.RxPressure) and the start of each pressure episode is logged once,
// so a capped (or static) pool starving a device is observable.
func (e *Engine) rxAlloc(ifc *iface) (shm.RichPtr, bool) {
	ptr, _, err := e.rxPool.Alloc()
	if err != nil {
		ifc.rxPressure++
		e.stats.RxPressure++
		if !ifc.inPressure {
			ifc.inPressure = true
			log.Printf("ipeng: rx pool exhausted supplying %s (%d/%d chunks in use, %d segments); device may drop until buffers recycle",
				ifc.cfg.Name, e.rxPool.InUse(), e.rxPool.Chunks(), e.rxPool.Segments())
		}
		return shm.RichPtr{}, false
	}
	ifc.inPressure = false
	return ptr, true
}

// freeRx returns a receive buffer to the pool. A driver short of its
// complement outside a batch of its own is short because the pool ran dry,
// so the freed chunk goes straight back to it: that is where the pressure
// ends.
func (e *Engine) freeRx(buf shm.RichPtr) {
	full := shm.RichPtr{Pool: buf.Pool, Off: buf.Off - buf.Off%RxChunkSize, Len: RxChunkSize}
	_ = e.rxPool.Free(full)
	for i := range e.drv {
		if ifc := e.drv[i].ifc; ifc.rxOutstanding < RxBufsPerDriver {
			e.supply(ifc, 1)
			return
		}
	}
}

// ifaceTable describes the saved state: the interface configuration.
func ifaceTable(c *staterec.Codec, ifaces *[]IfaceConfig) {
	staterec.List(c, ifaces, 4+4+8+4, func(ic *IfaceConfig) {
		c.String(&ic.Name)
		c.Bytes(ic.IP[:])
		staterec.Num(c, &ic.MaskBits)
		c.Bytes(ic.GW[:])
	})
}

// SaveState serializes interface configuration.
func (e *Engine) SaveState() []byte {
	return staterec.Encode(func(c *staterec.Codec) { ifaceTable(c, &e.cfg.Ifaces) })
}

// RestoreState replaces the interface configuration from a SaveState blob
// and lays the peer table out again for it, so it belongs between New and
// the first message; a blob that does not decode changes nothing.
func (e *Engine) RestoreState(blob []byte) error {
	var ifaces []IfaceConfig
	if err := staterec.Decode(blob, func(c *staterec.Codec) { ifaceTable(c, &ifaces) }); err != nil {
		return fmt.Errorf("ipeng: decode: %w", err)
	}
	e.cfg.Ifaces = ifaces
	e.layout(ifaces)
	return nil
}

// Persist saves the configuration through the hook.
func (e *Engine) Persist() {
	if e.cfg.SaveState != nil {
		e.cfg.SaveState(e.SaveState())
	}
}
