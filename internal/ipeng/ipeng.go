// Package ipeng is the IP/ICMP/ARP engine: routing, ARP resolution, ICMP
// echo, and the hand-off choreography that makes IP "the only component
// that communicates with drivers" (paper §V, Figure 3). Every packet —
// inbound and outbound — passes through the packet filter T junction
// before it proceeds; IP must see a verdict for each query, which is what
// makes PF crashes lossless.
//
// IP owns the receive pools the drivers DMA into and the header pool for
// outgoing frames, so it is also the component whose crash forces device
// resets (paper §V-D "IP").
//
// IP is also the inbound router of the sharded TCP engine
// (docs/ARCHITECTURE.md "Sharded TCP"): with Config.TCPShards > 1 it hashes
// every inbound segment's 4-tuple (netpkt.TCPShardOf) to one of N per-shard
// output batches — one SendBatch, one wakeup per shard per iteration — and
// tracks each delivery under that shard's abort scope so a single shard's
// restart recycles only its own buffers.
package ipeng

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"log"
	"strconv"
	"time"

	"newtos/internal/channel"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/trace"
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
	// arpQueueCap chunks per neighbor per interface (which would also keep
	// elastic pools from ever shrinking the segments those chunks live in).
	maxARPTries = 5
	// hdrChunks / elasticHdrChunks size the header pool: static pools keep
	// the historical worst-case complement, elastic pools start at a
	// quarter of it and grow on demand.
	hdrChunks        = 4096
	elasticHdrChunks = 1024
)

// DefaultElastic is the pool growth policy every node's IP server runs
// with: up to 8 segments (8× the base complement), shrink a
// quiescent trailing segment after ~1k idle loop iterations.
func DefaultElastic() shm.Elastic {
	return shm.Elastic{MaxSegments: 8, HighWater: 0.5, Quiescence: shm.DefaultQuiescence}
}

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
	// TCPShards is how many TCP engine shards inbound segments are
	// distributed over. IP routes each segment by the flow-hash contract
	// (netpkt.TCPShardOf over dstPort/srcIP/srcPort — the local host's view
	// of the 4-tuple), accumulating one output batch per shard per
	// iteration so the one-wakeup-per-batch-per-hop amortization holds for
	// every shard edge. <= 1 means a single unsharded TCP server.
	TCPShards int
	// Elastic is the growth policy for the RX and header pools. The zero
	// value keeps both statically sized (the pre-elastic behavior); see
	// DefaultElastic for the policy core turns on.
	Elastic shm.Elastic
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
	DropsRingFull           uint64
	TxResubmitted           uint64
	PFResubmitted           uint64
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
	// GRODeliveries counts merged (multi-segment) deliveries to TCP
	// shards; GROCoalesced counts the extra segments folded into them —
	// each one an OpIPDeliver/OpIPDeliverDone round trip saved.
	GRODeliveries uint64
	GROCoalesced  uint64
}

type iface struct {
	cfg   IfaceConfig
	mac   netpkt.MAC
	macOK bool
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

// outPkt is one outbound packet in flight inside IP.
type outPkt struct {
	ifaceName string
	hdr       shm.RichPtr // eth+ip+l4 combined header chunk (ours to free)
	hdrView   []byte
	payload   []shm.RichPtr
	totalLen  int
	offload   uint64
	segSize   uint16
	nextHop   netpkt.IPAddr
	// dstIP/srcIP are the packet's addresses as routed, kept so a link
	// failure can re-run route() for packets parked awaiting ARP.
	dstIP netpkt.IPAddr
	srcIP netpkt.IPAddr
	// Reply routing: which transport asked (and, for TCP, which shard),
	// and with what request ID.
	srcProto uint8
	srcShard int
	origID   uint64
	// verdictDone marks packets already past the PF junction.
	verdictDone bool
	// icmpPayload is an extra engine-owned chunk to free on completion
	// (ICMP replies synthesize their payload in the header pool).
	icmpPayload shm.RichPtr
}

// inPkt is one inbound packet parked for a PF verdict or a transport.
type inPkt struct {
	ifaceName string
	buf       shm.RichPtr // full RX buffer slice (frame)
	l3Off     uint32
	l4Off     uint32
	srcIP     netpkt.IPAddr
	dstIP     netpkt.IPAddr
	proto     uint8
	// srcPort/dstPort are parsed at intake (while the frame view is in
	// hand) for TCP shard routing; portsOK is false when the segment was
	// too short to carry them.
	srcPort uint16
	dstPort uint16
	portsOK bool
	// GRO metadata, parsed at intake alongside the ports: data-bearing
	// TCP segments with only ACK(+PSH) set are coalescing candidates
	// (groOK); the sequence/ack/window fields decide in-order same-flow
	// adjacency in the shard's GRO slot.
	groOK      bool
	tcpSeq     uint32
	tcpAckNo   uint32
	tcpWnd     uint16
	tcpFlags   uint8
	tcpDataOff uint32
	tcpPayLen  uint32
}

// GRO tuning: a merged delivery carries at most groMaxSegs segments (the
// chain is 1 full segment + payload-only views, bounded well under
// msg.MaxPtrs) and at most groMaxBytes of payload.
const (
	groMaxSegs  = 16
	groMaxBytes = 64 << 10
)

// groSlot accumulates an in-order run of same-flow TCP segments bound for
// one shard, merged into a single OpIPDeliver before dispatch. One slot
// per shard; it never survives a loop iteration (DrainToTCPShard flushes).
type groSlot struct {
	active  bool
	srcIP   netpkt.IPAddr
	dstIP   netpkt.IPAddr
	srcPort uint16
	dstPort uint16
	nextSeq uint32
	ack     uint32
	wnd     uint16
	bytes   uint32
	pkts    []*inPkt
}

// groBatch is the request-database payload of a merged delivery: every
// buffer recycles together when the shard acknowledges (or dies).
type groBatch struct {
	pkts []*inPkt
}

// Engine is the IP server's logic. Single-threaded.
type Engine struct {
	cfg     Config
	rxPool  *shm.Pool
	hdrPool *shm.Pool
	db      *channel.ReqDB
	ifaces  map[string]*iface
	order   []string // iface routing order
	ipid    uint16

	tcpShards int

	toDrv map[string][]msg.Req
	toPF  []msg.Req
	// toTCP holds one output batch per TCP shard, so each shard edge gets
	// one SendBatch (and its peer one wakeup) per loop iteration.
	toTCP [][]msg.Req
	// gro holds each shard's RX-coalescing slot (merge in-order same-flow
	// TCP segments into one delivery before shard dispatch).
	gro   []groSlot
	toUDP []msg.Req
	stats Stats
	now   time.Time

	// rxCounters/hdrCounters mirror the pools' elasticity into trace
	// gauges; Tick refreshes the gauges once per loop iteration.
	rxCounters  trace.PoolCounters
	hdrCounters trace.PoolCounters
}

// New creates an IP engine with fresh pools in space. Each incarnation
// creates new pools; old pools stay resolvable so transports holding
// references into a dead incarnation's pool can still read (the paper's
// "inherited address space"), they just can never be recycled.
func New(cfg Config) (*Engine, error) {
	rx, err := cfg.Space.NewPool("ip.rx", RxChunkSize, RxBufsPerDriver*8)
	if err != nil {
		return nil, fmt.Errorf("ipeng: rx pool: %w", err)
	}
	hc := hdrChunks
	if cfg.Elastic.Enabled() {
		hc = elasticHdrChunks
	}
	hdr, err := cfg.Space.NewPool("ip.hdr", HdrChunkSize, hc)
	if err != nil {
		return nil, fmt.Errorf("ipeng: hdr pool: %w", err)
	}
	shards := cfg.TCPShards
	if shards < 1 {
		shards = 1
	}
	e := &Engine{
		cfg:       cfg,
		rxPool:    rx,
		hdrPool:   hdr,
		db:        channel.NewReqDB(),
		ifaces:    make(map[string]*iface),
		tcpShards: shards,
		toDrv:     make(map[string][]msg.Req),
		toTCP:     make([][]msg.Req, shards),
		gro:       make([]groSlot, shards),
	}
	for _, ic := range cfg.Ifaces {
		e.ifaces[ic.Name] = &iface{
			cfg:      ic,
			linkUp:   true,
			arp:      make(map[netpkt.IPAddr]netpkt.MAC),
			pending:  make(map[netpkt.IPAddr][]*outPkt),
			arpSent:  make(map[netpkt.IPAddr]time.Time),
			arpTries: make(map[netpkt.IPAddr]int),
		}
		e.order = append(e.order, ic.Name)
	}
	if cfg.Elastic.Enabled() {
		rx.SetElastic(cfg.Elastic)
		rx.SetObserver(&e.rxCounters)
		// The header pool keeps the historical worst case as its hard
		// cap: base complement × segments == the old static complement.
		hdrElastic := cfg.Elastic
		hdrElastic.MaxSegments = hdrChunks / elasticHdrChunks
		hdr.SetElastic(hdrElastic)
		hdr.SetObserver(&e.hdrCounters)
	}
	e.rxCounters.Sample(rx.Segments(), rx.InUse())
	e.hdrCounters.Sample(hdr.Segments(), hdr.InUse())
	return e, nil
}

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// RxPoolCounters exposes the RX pool's elasticity gauges/counters.
func (e *Engine) RxPoolCounters() *trace.PoolCounters { return &e.rxCounters }

// HdrPoolCounters exposes the header pool's elasticity gauges/counters.
func (e *Engine) HdrPoolCounters() *trace.PoolCounters { return &e.hdrCounters }

// RxPressure returns how many RX-buffer allocations the named interface
// lost to pool exhaustion.
func (e *Engine) RxPressure(name string) uint64 {
	if ifc, ok := e.ifaces[name]; ok {
		return ifc.rxPressure
	}
	return 0
}

// Tick runs the per-iteration housekeeping: every driver is topped back up
// to RxBufsPerDriver (burst traffic parks RX buffers with the transports,
// so recycling alone under-supplies the device), ARP retries fire and give
// up for neighbors that never answer, the pools evaluate their grow/shrink
// policy, and the trace gauges are refreshed. The server loop calls it once
// per iteration.
func (e *Engine) Tick(now time.Time) {
	e.now = now
	for _, name := range e.order {
		e.SupplyDriver(name)
	}
	e.arpSweep()
	e.rxPool.Tick()
	e.hdrPool.Tick()
	e.rxCounters.Sample(e.rxPool.Segments(), e.rxPool.InUse())
	e.hdrCounters.Sample(e.hdrPool.Segments(), e.hdrPool.InUse())
}

// LocalIP returns the first interface address (hosts in the evaluation
// have one address per interface, same-subnet wiring).
func (e *Engine) LocalIP() netpkt.IPAddr {
	if len(e.order) == 0 {
		return netpkt.IPAddr{}
	}
	return e.ifaces[e.order[0]].cfg.IP
}

// Drains.

// DrainToDriver returns pending requests for the named driver.
func (e *Engine) DrainToDriver(name string) []msg.Req {
	out := e.toDrv[name]
	if len(out) > 0 {
		e.toDrv[name] = nil
	}
	return out
}

// DrainToPF returns pending filter queries.
func (e *Engine) DrainToPF() []msg.Req {
	out := e.toPF
	e.toPF = nil
	return out
}

// DrainToTCP returns pending deliveries/completions for TCP shard 0 — the
// whole TCP server in unsharded deployments.
func (e *Engine) DrainToTCP() []msg.Req { return e.DrainToTCPShard(0) }

// DrainToTCPShard returns pending deliveries/completions for one TCP
// shard, closing the shard's GRO run first — coalescing never holds a
// segment past the loop iteration that received it.
func (e *Engine) DrainToTCPShard(shard int) []msg.Req {
	if shard < 0 || shard >= e.tcpShards {
		return nil
	}
	e.groFlush(shard)
	out := e.toTCP[shard]
	e.toTCP[shard] = nil
	return out
}

// DrainToUDP returns pending deliveries/completions for UDP.
func (e *Engine) DrainToUDP() []msg.Req {
	out := e.toUDP
	e.toUDP = nil
	return out
}

// SupplyDriver tops up the driver's receive buffers to the target level;
// call after (re)wiring a driver edge.
func (e *Engine) SupplyDriver(name string) {
	ifc, ok := e.ifaces[name]
	if !ok {
		return
	}
	for ifc.rxOutstanding < RxBufsPerDriver {
		ptr, ok := e.rxAlloc(ifc, name)
		if !ok {
			return // pool exhausted at the cap; counted by rxAlloc
		}
		req := msg.Req{ID: e.db.NewID(), Op: msg.OpRxSupply}
		req.SetChain([]shm.RichPtr{ptr})
		e.toDrv[name] = append(e.toDrv[name], req)
		ifc.rxOutstanding++
	}
}

// rxAlloc reserves one receive buffer for the named interface. Exhaustion
// is never silent: every failed allocation is counted (per interface and in
// Stats.RxPressure) and the start of each pressure episode is logged once,
// so a capped (or static) pool starving a device is observable.
func (e *Engine) rxAlloc(ifc *iface, name string) (shm.RichPtr, bool) {
	ptr, _, err := e.rxPool.Alloc()
	if err != nil {
		ifc.rxPressure++
		e.stats.RxPressure++
		if !ifc.inPressure {
			ifc.inPressure = true
			log.Printf("ipeng: rx pool exhausted supplying %s (%d/%d chunks in use, %d segments); device may drop until buffers recycle",
				name, e.rxPool.InUse(), e.rxPool.Chunks(), e.rxPool.Segments())
		}
		return shm.RichPtr{}, false
	}
	ifc.inPressure = false
	return ptr, true
}

// OnDriverRestart implements IP's recovery role for a crashed driver:
// resubmit the packets the dead incarnation may not have transmitted
// ("in case of doubt, we prefer to send a few duplicates") and resupply
// fresh receive buffers.
func (e *Engine) OnDriverRestart(name string, now time.Time) {
	e.now = now
	ifc, ok := e.ifaces[name]
	if !ok {
		return
	}
	ifc.rxOutstanding = 0
	e.db.AbortDest("drv/" + name)
	e.SupplyDriver(name)
}

// OnPFRestart resubmits every outstanding verdict query: "it can safely
// resubmit all unfinished requests without packet loss".
func (e *Engine) OnPFRestart(now time.Time) {
	e.now = now
	e.db.AbortDest("pf")
}

// tcpDest names the request-database abort scope of one TCP shard, so a
// single shard's restart aborts only its own in-flight deliveries and
// transmissions while the other shards' state is untouched.
func tcpDest(shard int) string { return "tcp/" + strconv.Itoa(shard) }

// OnTransportRestart drops deliveries parked with a dead transport and
// recycles their buffers. For TCP this is the unsharded spelling of
// OnTCPShardRestart(0, now).
func (e *Engine) OnTransportRestart(proto uint8, now time.Time) {
	if proto == netpkt.ProtoTCP {
		e.OnTCPShardRestart(0, now)
		return
	}
	e.now = now
	e.db.AbortDest("udp")
}

// OnTCPShardRestart handles the restart of one TCP shard: only that shard's
// parked deliveries are aborted (their buffers recycled) — per-shard crash
// recovery must leave every other shard's established state alone.
func (e *Engine) OnTCPShardRestart(shard int, now time.Time) {
	e.now = now
	if shard >= 0 && shard < e.tcpShards {
		// Segments still accumulating in the GRO slot were never tracked:
		// recycle them directly.
		slot := &e.gro[shard]
		if slot.active {
			for _, p := range slot.pkts {
				e.recycleRx(p)
			}
			slot.active = false
		}
	}
	e.db.AbortDest(tcpDest(shard))
}

// FromTransport handles a message from the (unsharded) TCP server or from
// UDP; sharded TCP servers enter through FromTCPShard instead.
func (e *Engine) FromTransport(proto uint8, r msg.Req, now time.Time) {
	e.now = now
	switch r.Op {
	case msg.OpIPSend:
		e.sendOut(proto, 0, r)
	case msg.OpIPDeliverDone:
		e.deliverDone(r)
	default:
		// Transports only send IPSend/DeliverDone; ignore anything else
		// rather than corrupt engine state on a confused peer.
	}
}

// FromTCPShard handles a message from one TCP shard; the shard index rides
// on outbound packets so completions travel back to the shard that sent
// them.
func (e *Engine) FromTCPShard(shard int, r msg.Req, now time.Time) {
	e.now = now
	switch r.Op {
	case msg.OpIPSend:
		e.sendOut(netpkt.ProtoTCP, shard, r)
	case msg.OpIPDeliverDone:
		e.deliverDone(r)
	default:
		// Shards only send IPSend/DeliverDone; see FromTransport.
	}
}

// FromTCPShardBatch feeds a drained batch from one TCP shard through the
// engine (see FromTransportBatch for the batching rationale).
func (e *Engine) FromTCPShardBatch(shard int, batch []msg.Req, now time.Time) {
	e.now = now
	for i := range batch {
		e.FromTCPShard(shard, batch[i], now)
	}
}

// FromTransportBatch feeds a drained batch from TCP or UDP through the
// engine. The per-destination output slices (toDrv/toPF/...) accumulate
// across the whole batch, so each downstream hop later receives one batch —
// and pays one wakeup — per loop iteration instead of one per request.
func (e *Engine) FromTransportBatch(proto uint8, batch []msg.Req, now time.Time) {
	e.now = now
	for i := range batch {
		e.FromTransport(proto, batch[i], now)
	}
}

// FromDriverBatch feeds a drained batch from the named driver through the
// engine (see FromTransportBatch for the batching rationale).
func (e *Engine) FromDriverBatch(name string, batch []msg.Req, now time.Time) {
	e.now = now
	for i := range batch {
		e.FromDriver(name, batch[i], now)
	}
}

// FromPFBatch feeds a drained batch of verdicts through the engine.
func (e *Engine) FromPFBatch(batch []msg.Req, now time.Time) {
	e.now = now
	for i := range batch {
		e.FromPF(batch[i], now)
	}
}

// FromDriver handles a message from the named driver.
func (e *Engine) FromDriver(name string, r msg.Req, now time.Time) {
	e.now = now
	switch r.Op {
	case msg.OpRxPacket:
		e.rxPacket(name, r)
	case msg.OpTxDone:
		e.txDone(r)
	case msg.OpLinkEvent:
		e.OnLinkChange(name, r.Arg[0] == 1, now)
	case msg.OpDrvInfo:
		if ifc, ok := e.ifaces[name]; ok {
			var mac netpkt.MAC
			for i := 0; i < 6; i++ {
				mac[i] = byte(r.Arg[0] >> (8 * uint(5-i)))
			}
			ifc.mac = mac
			ifc.macOK = true
		}
	default:
		// Drivers only send RxPacket/TxDone/LinkEvent/DrvInfo; ignore
		// anything else rather than corrupt engine state.
	}
}

// FromPF handles a verdict.
func (e *Engine) FromPF(r msg.Req, now time.Time) {
	e.now = now
	if r.Op != msg.OpPFVerdict {
		return
	}
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return // pre-crash verdict; the query was resubmitted
	}
	switch pkt := data.(type) {
	case *outPkt:
		if r.Status != 0 {
			e.stats.Blocked++
			e.failOut(pkt, msg.StatusErrBlocked)
			return
		}
		pkt.verdictDone = true
		e.resolveAndSend(pkt)
	case *inPkt:
		if r.Status != 0 {
			e.stats.Blocked++
			e.recycleRx(pkt)
			return
		}
		e.demux(pkt)
	}
}

// route is the multi-homed route table: it picks the egress interface and
// next hop for dst, honoring link state and source binding. src is the
// packet's (possibly zero) source address; a non-zero src that matches an
// interface address binds the packet to that interface when it has any
// route to dst.
//
// Every live interface contributes up to one candidate — a connected-subnet
// route (next hop = dst) or a gateway route (next hop = GW) — and the best
// candidate wins by precedence:
//
//	bound+direct > direct > bound+gateway > gateway
//
// Destination specificity comes first (longest-prefix-match: a connected
// subnet always beats a default gateway), source binding breaks ties among
// equally specific routes. Interfaces whose link is down never match, which
// is what makes a dst normally reached over a dead wire fail over to
// another live subnet or gateway route. Remaining ties keep configuration
// order.
func (e *Engine) route(dst, src netpkt.IPAddr) (*iface, netpkt.IPAddr, bool) {
	const (
		bound   = 1
		gateway = 2
		direct  = 4
	)
	var (
		best      *iface
		bestHop   netpkt.IPAddr
		bestScore int
	)
	for _, name := range e.order {
		ifc := e.ifaces[name]
		if !ifc.linkUp {
			continue
		}
		score, hop := 0, netpkt.IPAddr{}
		switch {
		case dst.InSubnet(ifc.cfg.IP, ifc.cfg.MaskBits):
			score, hop = direct, dst
		case ifc.cfg.GW != (netpkt.IPAddr{}):
			score, hop = gateway, ifc.cfg.GW
		default:
			continue // no route to dst via this interface
		}
		if src != (netpkt.IPAddr{}) && src == ifc.cfg.IP {
			score += bound
		}
		if score > bestScore {
			best, bestHop, bestScore = ifc, hop, score
		}
	}
	return best, bestHop, best != nil
}

// isLocal reports whether ip is one of this host's interface addresses.
// Inbound acceptance is weak-host: a packet for any local address is ours
// no matter which interface it arrived on — multi-homed failover depends on
// it (traffic for a dead wire's address comes in over the surviving one).
func (e *Engine) isLocal(ip netpkt.IPAddr) bool {
	for _, name := range e.order {
		if e.ifaces[name].cfg.IP == ip {
			return true
		}
	}
	return false
}

// OnLinkChange applies a driver's link transition to the route table. On a
// down edge, every packet parked on the interface awaiting ARP resolution
// is re-routed through a surviving interface — or failed back to its
// transport with StatusErrNoRoute — instead of staying silently parked on a
// wire that can no longer carry it. (Frames already posted to the device
// fail fast through their TxDone completions; the transports' RTO path then
// retransmits via the new route.)
func (e *Engine) OnLinkChange(name string, up bool, now time.Time) {
	e.now = now
	ifc, ok := e.ifaces[name]
	if !ok || ifc.linkUp == up {
		return
	}
	ifc.linkUp = up
	if up {
		e.stats.LinkUps++
		return
	}
	e.stats.LinkDowns++
	for hop, pkts := range ifc.pending {
		delete(ifc.pending, hop)
		delete(ifc.arpSent, hop)
		delete(ifc.arpTries, hop)
		for _, pkt := range pkts {
			e.reroute(pkt)
		}
	}
}

// reroute re-runs the route table for a parked packet whose egress link
// died; with no surviving route the packet fails back to its transport.
// The survivor is a different interface, so the packet goes back through
// the outbound PF junction — its earlier verdict was for the dead egress,
// and per-interface policy may differ on the new one.
func (e *Engine) reroute(pkt *outPkt) {
	ifc, hop, ok := e.route(pkt.dstIP, pkt.srcIP)
	if !ok {
		e.stats.DropsNoRoute++
		e.failOut(pkt, msg.StatusErrNoRoute)
		return
	}
	e.stats.Rerouted++
	pkt.ifaceName = ifc.cfg.Name
	pkt.nextHop = hop
	pkt.verdictDone = false
	e.junctionOut(pkt)
}

// sendOut builds the full frame header for a transport payload and routes
// it through the PF junction towards a driver. shard identifies the TCP
// shard that asked (0 for UDP/unsharded) so the completion goes home.
func (e *Engine) sendOut(proto uint8, shard int, r msg.Req) {
	segSize := uint16(r.Arg[0] >> 16)
	dst := netpkt.IPFromU32(uint32(r.Arg[2]))
	src := netpkt.IPFromU32(uint32(r.Arg[1]))
	offloadReq := r.Arg[3]

	ifc, nextHop, ok := e.route(dst, src)
	if !ok {
		e.stats.DropsNoRoute++
		e.replyTransport(proto, shard, r.ID, msg.StatusErrNoRoute)
		return
	}
	if src == (netpkt.IPAddr{}) {
		src = ifc.cfg.IP
	}

	// Resolve the transport's header chunk and payload chain.
	chain := r.Chain()
	if len(chain) == 0 {
		e.replyTransport(proto, shard, r.ID, msg.StatusErrInval)
		return
	}
	l4hdr, err := e.cfg.Space.View(chain[0])
	if err != nil {
		e.replyTransport(proto, shard, r.ID, msg.StatusErrInval)
		return
	}
	payload := chain[1:]
	payloadLen := 0
	for _, p := range payload {
		payloadLen += int(p.Len)
	}
	totalIP := netpkt.IPv4HeaderLen + len(l4hdr) + payloadLen

	// Combine Ethernet + IP + the (tiny) L4 header in one chunk of our
	// own pool — pools are immutable to consumers, so IP copies the
	// header it must complete (paper §V-C: "As the headers are tiny, we
	// combine them with IP headers in one chunk").
	hdrPtr, hdrBuf, err := e.hdrPool.Alloc()
	if err != nil {
		e.replyTransport(proto, shard, r.ID, msg.StatusErrNoBufs)
		return
	}
	e.ipid++
	ih := netpkt.IPv4Header{
		TotalLen: uint16(totalIP), ID: e.ipid, Flags: netpkt.IPFlagDF,
		TTL: netpkt.DefaultTTL, Proto: proto, Src: src, Dst: dst,
	}
	ih.Marshal(hdrBuf[netpkt.EthHeaderLen:], !e.cfg.Offload)
	copy(hdrBuf[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:], l4hdr)
	hdrLen := netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + len(l4hdr)

	offload := uint64(0)
	if e.cfg.Offload {
		offload = msg.OffloadCsumIP
		if offloadReq&msg.OffloadCsumL4 != 0 {
			offload |= msg.OffloadCsumL4
		}
		if offloadReq&msg.OffloadTSO != 0 && segSize > 0 {
			offload |= msg.OffloadTSO
		}
	} else {
		segSize = 0 // no TSO without offload
	}

	pkt := &outPkt{
		ifaceName: ifc.cfg.Name,
		hdr:       hdrPtr.Slice(0, uint32(hdrLen)),
		hdrView:   hdrBuf[:hdrLen],
		payload:   append([]shm.RichPtr(nil), payload...),
		totalLen:  netpkt.EthHeaderLen + totalIP,
		offload:   offload,
		segSize:   segSize,
		nextHop:   nextHop,
		dstIP:     dst,
		srcIP:     src,
		srcProto:  proto,
		srcShard:  shard,
		origID:    r.ID,
	}
	e.junctionOut(pkt)
}

// junctionOut runs the post-routing PF query, or proceeds directly when
// the filter is disabled.
func (e *Engine) junctionOut(pkt *outPkt) {
	if !e.cfg.PFEnabled {
		pkt.verdictDone = true
		e.resolveAndSend(pkt)
		return
	}
	id := e.db.NewID()
	e.db.Track(id, "pf", pkt, func(_ uint64, data any) {
		// PF crashed before answering: resubmit, no loss.
		e.stats.PFResubmitted++
		e.junctionOut(data.(*outPkt))
	})
	q := msg.Req{ID: id, Op: msg.OpPFQuery}
	q.Arg[0] = 1 // direction: out
	q.Arg[1] = msg.PackIfaceName(pkt.ifaceName)
	// PF sees the packet from the IP header on.
	chain := append([]shm.RichPtr{pkt.hdr.Slice(netpkt.EthHeaderLen, pkt.hdr.Len)}, pkt.payload...)
	q.SetChain(chain)
	e.toPF = append(e.toPF, q)
}

// resolveAndSend ARP-resolves the next hop and hands the frame to the
// driver.
func (e *Engine) resolveAndSend(pkt *outPkt) {
	ifc := e.ifaces[pkt.ifaceName]
	mac, ok := ifc.arp[pkt.nextHop]
	if !ok {
		if len(ifc.pending[pkt.nextHop]) >= arpQueueCap {
			e.failOut(pkt, msg.StatusErrNoBufs)
			return
		}
		ifc.pending[pkt.nextHop] = append(ifc.pending[pkt.nextHop], pkt)
		e.maybeARP(ifc, pkt.nextHop)
		return
	}
	e.frameOut(ifc, pkt, mac)
}

func (e *Engine) frameOut(ifc *iface, pkt *outPkt, dstMAC netpkt.MAC) {
	eh := netpkt.EthHeader{Dst: dstMAC, Src: ifc.mac, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(pkt.hdrView)

	id := e.db.NewID()
	e.db.Track(id, "drv/"+ifc.cfg.Name, pkt, func(_ uint64, data any) {
		// Driver crashed with the packet possibly untransmitted: the
		// paper prefers duplicates over silence — resubmit.
		p := data.(*outPkt)
		e.stats.TxResubmitted++
		e.frameOut(e.ifaces[p.ifaceName], p, dstMAC)
	})
	req := msg.Req{ID: id, Op: msg.OpTxSubmit}
	req.SetChain(append([]shm.RichPtr{pkt.hdr}, pkt.payload...))
	req.Arg[0] = pkt.offload
	req.Arg[1] = uint64(pkt.segSize)
	e.toDrv[ifc.cfg.Name] = append(e.toDrv[ifc.cfg.Name], req)
}

// txDone finishes an outbound packet: free our header chunk and complete
// the transport's request.
func (e *Engine) txDone(r msg.Req) {
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return
	}
	pkt, ok := data.(*outPkt)
	if !ok {
		// Engine-internal frame (ARP request/reply): the tracked data is
		// the bare header chunk, which is all there is to free.
		if ptr, isPtr := data.(shm.RichPtr); isPtr {
			_ = e.hdrPool.Free(ptr)
		}
		return
	}
	_ = e.hdrPool.Free(pkt.hdr)
	if !pkt.icmpPayload.IsZero() {
		_ = e.hdrPool.Free(pkt.icmpPayload)
	}
	e.stats.PktsOut++
	e.stats.BytesOut += uint64(pkt.totalLen)
	if pkt.origID != 0 {
		st := msg.StatusOK
		if r.Status != 0 {
			st = r.Status
		}
		e.replyTransport(pkt.srcProto, pkt.srcShard, pkt.origID, st)
	}
}

func (e *Engine) failOut(pkt *outPkt, status int32) {
	_ = e.hdrPool.Free(pkt.hdr)
	if !pkt.icmpPayload.IsZero() {
		_ = e.hdrPool.Free(pkt.icmpPayload)
	}
	if pkt.origID != 0 {
		e.replyTransport(pkt.srcProto, pkt.srcShard, pkt.origID, status)
	}
}

func (e *Engine) replyTransport(proto uint8, shard int, id uint64, status int32) {
	rep := msg.Req{ID: id, Op: msg.OpIPSendDone, Status: status}
	if proto == netpkt.ProtoTCP {
		e.toTCP[shard] = append(e.toTCP[shard], rep)
	} else if proto == netpkt.ProtoUDP {
		e.toUDP = append(e.toUDP, rep)
	}
	// ICMP (proto 1) replies are internal: the header chunk is all there
	// was; nothing to notify.
}

// maybeARP sends an ARP request if none is recent.
func (e *Engine) maybeARP(ifc *iface, target netpkt.IPAddr) {
	if t, ok := ifc.arpSent[target]; ok && e.now.Sub(t) < arpTimeout {
		return
	}
	e.sendARP(ifc, target)
}

// arpSweep is the per-iteration resolution timer: neighbors with packets
// queued whose last ARP request timed out (or never left, under header-pool
// pressure) are retried, and after maxARPTries *sent* requests the queue is
// failed (StatusErrNoRoute) so the transports see an error and the pool
// chunks are freed. A later packet for the same neighbor starts a fresh
// episode.
func (e *Engine) arpSweep() {
	for _, name := range e.order {
		ifc := e.ifaces[name]
		for target := range ifc.pending {
			if sentAt, ok := ifc.arpSent[target]; ok && e.now.Sub(sentAt) < arpTimeout {
				continue
			}
			if !ifc.linkUp || ifc.arpTries[target] >= maxARPTries {
				e.failPending(ifc, target, msg.StatusErrNoRoute)
				continue
			}
			e.sendARP(ifc, target)
		}
		// Resolution state with no waiters (e.g. queue failed on
		// link-down) expires quietly.
		for target, sentAt := range ifc.arpSent {
			if len(ifc.pending[target]) == 0 && e.now.Sub(sentAt) >= arpTimeout {
				delete(ifc.arpSent, target)
				delete(ifc.arpTries, target)
			}
		}
	}
}

// failPending fails every packet queued behind an unresolvable next hop and
// clears the neighbor's resolution state.
func (e *Engine) failPending(ifc *iface, target netpkt.IPAddr, status int32) {
	pend := ifc.pending[target]
	delete(ifc.pending, target)
	delete(ifc.arpSent, target)
	delete(ifc.arpTries, target)
	for _, pkt := range pend {
		e.stats.ARPFailed++
		e.failOut(pkt, status)
	}
}

// sendARP emits one ARP request for target. The attempt timestamp is
// recorded even when the header pool is exhausted (rate-limiting retries
// under pressure), but the give-up budget is only charged for requests that
// actually went out — transient buffer pressure must not turn into a
// permanent EHOSTUNREACH for a neighbor that was never probed.
func (e *Engine) sendARP(ifc *iface, target netpkt.IPAddr) {
	ifc.arpSent[target] = e.now
	hdrPtr, buf, err := e.hdrPool.Alloc()
	if err != nil {
		return // retry next sweep; the try is not charged
	}
	ifc.arpTries[target]++
	eh := netpkt.EthHeader{Dst: netpkt.Broadcast, Src: ifc.mac, Type: netpkt.EtherTypeARP}
	eh.Marshal(buf)
	ap := netpkt.ARPPacket{
		Op: netpkt.ARPRequest, SenderMAC: ifc.mac, SenderIP: ifc.cfg.IP,
		TargetIP: target,
	}
	ap.Marshal(buf[netpkt.EthHeaderLen:])
	flen := netpkt.EthHeaderLen + netpkt.ARPLen

	id := e.db.NewID()
	e.db.Track(id, "drv/"+ifc.cfg.Name, hdrPtr, func(_ uint64, data any) {
		_ = e.hdrPool.Free(data.(shm.RichPtr))
	})
	req := msg.Req{ID: id, Op: msg.OpTxSubmit}
	req.SetChain([]shm.RichPtr{hdrPtr.Slice(0, uint32(flen))})
	e.toDrv[ifc.cfg.Name] = append(e.toDrv[ifc.cfg.Name], req)
	e.stats.ARPRequests++
}

// rxPacket handles one received frame from a driver.
func (e *Engine) rxPacket(name string, r msg.Req) {
	ifc, ok := e.ifaces[name]
	if !ok {
		return
	}
	ifc.rxOutstanding--
	buf := r.Ptrs[0]
	view, err := e.cfg.Space.View(buf)
	if err != nil {
		e.resupply(name)
		return
	}
	e.stats.PktsIn++
	e.stats.BytesIn += uint64(len(view))
	eh, err := netpkt.ParseEth(view)
	if err != nil {
		e.dropRx(name, buf)
		return
	}
	switch eh.Type {
	case netpkt.EtherTypeARP:
		e.handleARP(ifc, view[netpkt.EthHeaderLen:])
		e.dropRx(name, buf)
	case netpkt.EtherTypeIPv4:
		e.handleIPv4(ifc, name, buf, view, r.Arg[1]&msg.FlagCsumOK != 0)
	default:
		e.dropRx(name, buf)
	}
}

func (e *Engine) handleARP(ifc *iface, b []byte) {
	ap, err := netpkt.ParseARP(b)
	if err != nil {
		return
	}
	// Learn the sender either way.
	ifc.arp[ap.SenderIP] = ap.SenderMAC
	e.flushPending(ifc, ap.SenderIP)
	if ap.Op == netpkt.ARPRequest && ap.TargetIP == ifc.cfg.IP {
		// Reply.
		hdrPtr, buf, err := e.hdrPool.Alloc()
		if err != nil {
			return
		}
		eh := netpkt.EthHeader{Dst: ap.SenderMAC, Src: ifc.mac, Type: netpkt.EtherTypeARP}
		eh.Marshal(buf)
		rep := netpkt.ARPPacket{
			Op: netpkt.ARPReply, SenderMAC: ifc.mac, SenderIP: ifc.cfg.IP,
			TargetMAC: ap.SenderMAC, TargetIP: ap.SenderIP,
		}
		rep.Marshal(buf[netpkt.EthHeaderLen:])
		id := e.db.NewID()
		e.db.Track(id, "drv/"+ifc.cfg.Name, hdrPtr, func(_ uint64, data any) {
			_ = e.hdrPool.Free(data.(shm.RichPtr))
		})
		req := msg.Req{ID: id, Op: msg.OpTxSubmit}
		req.SetChain([]shm.RichPtr{hdrPtr.Slice(0, uint32(netpkt.EthHeaderLen+netpkt.ARPLen))})
		e.toDrv[ifc.cfg.Name] = append(e.toDrv[ifc.cfg.Name], req)
		e.stats.ARPReplies++
	}
}

func (e *Engine) flushPending(ifc *iface, ip netpkt.IPAddr) {
	pend := ifc.pending[ip]
	if len(pend) == 0 {
		return
	}
	delete(ifc.pending, ip)
	delete(ifc.arpSent, ip)
	delete(ifc.arpTries, ip)
	mac := ifc.arp[ip]
	for _, pkt := range pend {
		e.frameOut(ifc, pkt, mac)
	}
}

func (e *Engine) handleIPv4(ifc *iface, name string, buf shm.RichPtr, view []byte, csumOK bool) {
	l3 := view[netpkt.EthHeaderLen:]
	ih, err := netpkt.ParseIPv4(l3, !csumOK)
	if err != nil {
		e.stats.DropsMalformed++
		e.dropRx(name, buf)
		return
	}
	if !e.isLocal(ih.Dst) {
		e.dropRx(name, buf) // not for us; hosts do not forward
		return
	}
	if int(ih.TotalLen) > len(l3) || ih.HeaderLen+0 > int(ih.TotalLen) {
		e.stats.DropsMalformed++
		e.dropRx(name, buf)
		return
	}
	pkt := &inPkt{
		ifaceName: name,
		buf:       buf,
		l3Off:     netpkt.EthHeaderLen,
		l4Off:     netpkt.EthHeaderLen + uint32(ih.HeaderLen),
		srcIP:     ih.Src,
		dstIP:     ih.Dst,
		proto:     ih.Proto,
	}
	if l4 := l3[ih.HeaderLen:]; len(l4) >= 4 {
		// Parse the port pair here, while the view is in hand, so shard
		// routing in demux needs no second space lookup per segment.
		pkt.srcPort = uint16(l4[0])<<8 | uint16(l4[1])
		pkt.dstPort = uint16(l4[2])<<8 | uint16(l4[3])
		pkt.portsOK = true
		if ih.Proto == netpkt.ProtoTCP {
			// Same economy for the GRO fields: a data-bearing segment
			// with only ACK(+PSH) set can merge into the shard's slot.
			// PSH does NOT end a run — the transmitter pushes every
			// burst, so flushing on it would disable coalescing.
			if th, err := netpkt.ParseTCP(l4); err == nil {
				pkt.tcpSeq = th.Seq
				pkt.tcpAckNo = th.Ack
				pkt.tcpWnd = th.Window
				pkt.tcpFlags = th.Flags
				pkt.tcpDataOff = uint32(th.DataOff)
				pkt.tcpPayLen = uint32(len(l4) - th.DataOff)
				pkt.groOK = th.Flags&^(netpkt.TCPAck|netpkt.TCPPsh) == 0 &&
					th.Flags&netpkt.TCPAck != 0 && pkt.tcpPayLen > 0
			}
		}
	}
	if !e.cfg.PFEnabled {
		e.demux(pkt)
		return
	}
	id := e.db.NewID()
	e.db.Track(id, "pf", pkt, func(_ uint64, data any) {
		e.stats.PFResubmitted++
		p := data.(*inPkt)
		nid := e.db.NewID()
		e.db.Track(nid, "pf", p, nil)
		q := msg.Req{ID: nid, Op: msg.OpPFQuery}
		q.Arg[0] = 0 // direction: in
		q.Arg[1] = msg.PackIfaceName(p.ifaceName)
		q.SetChain([]shm.RichPtr{p.buf.Slice(p.l3Off, p.buf.Len)})
		e.toPF = append(e.toPF, q)
	})
	q := msg.Req{ID: id, Op: msg.OpPFQuery}
	q.Arg[0] = 0 // direction: in
	q.Arg[1] = msg.PackIfaceName(pkt.ifaceName)
	q.SetChain([]shm.RichPtr{buf.Slice(pkt.l3Off, buf.Len)})
	e.toPF = append(e.toPF, q)
}

// demux hands a passed inbound packet to its protocol. TCP segments are
// routed to their owning shard by the flow-hash contract; the delivery is
// tracked under that shard's abort scope so only the owning shard's
// restart recycles it.
func (e *Engine) demux(pkt *inPkt) {
	switch pkt.proto {
	case netpkt.ProtoICMP:
		e.handleICMP(pkt)
		e.recycleRx(pkt)
	case netpkt.ProtoTCP:
		shard := e.tcpShardFor(pkt)
		if shard < 0 {
			// Segment too short to carry ports: malformed, drop.
			e.stats.DropsMalformed++
			e.recycleRx(pkt)
			return
		}
		e.groAdd(shard, pkt)
	case netpkt.ProtoUDP:
		id := e.db.NewID()
		e.db.Track(id, "udp", pkt, func(_ uint64, data any) {
			// Transport crashed before acknowledging the delivery; the
			// buffer comes home.
			e.recycleRx(data.(*inPkt))
		})
		req := msg.Req{ID: id, Op: msg.OpIPDeliver}
		req.SetChain([]shm.RichPtr{pkt.buf.Slice(pkt.l4Off, pkt.buf.Len)})
		req.Arg[0] = uint64(pkt.l4Off)
		req.Arg[1] = uint64(pkt.srcIP.U32())
		req.Arg[2] = uint64(pkt.dstIP.U32())
		e.toUDP = append(e.toUDP, req)
	default:
		e.recycleRx(pkt)
	}
}

// groAdd routes one inbound TCP segment through the shard's GRO slot:
// an in-order continuation of the slot's run joins it; anything else
// flushes the slot first (order to the shard is preserved) and either
// starts a new run or ships solo.
func (e *Engine) groAdd(shard int, pkt *inPkt) {
	slot := &e.gro[shard]
	if !pkt.groOK {
		e.groFlush(shard)
		e.deliverTCP(shard, pkt)
		return
	}
	if slot.active &&
		slot.srcIP == pkt.srcIP && slot.dstIP == pkt.dstIP &&
		slot.srcPort == pkt.srcPort && slot.dstPort == pkt.dstPort &&
		slot.nextSeq == pkt.tcpSeq &&
		// Identical ack/window required: the merged delivery carries only
		// the first segment's header, which must fully represent the
		// run's control information.
		slot.ack == pkt.tcpAckNo && slot.wnd == pkt.tcpWnd &&
		len(slot.pkts) < groMaxSegs && slot.bytes+pkt.tcpPayLen <= groMaxBytes {
		slot.pkts = append(slot.pkts, pkt)
		slot.nextSeq += pkt.tcpPayLen
		slot.bytes += pkt.tcpPayLen
		return
	}
	e.groFlush(shard)
	slot.active = true
	slot.srcIP, slot.dstIP = pkt.srcIP, pkt.dstIP
	slot.srcPort, slot.dstPort = pkt.srcPort, pkt.dstPort
	slot.nextSeq = pkt.tcpSeq + pkt.tcpPayLen
	slot.ack, slot.wnd = pkt.tcpAckNo, pkt.tcpWnd
	slot.bytes = pkt.tcpPayLen
	slot.pkts = append(slot.pkts[:0], pkt)
}

// groFlush dispatches the shard's pending run: a single segment ships
// exactly like the uncoalesced path; a longer run becomes one delivery
// whose chain is the first segment's full L4 view followed by the
// payload-only views of the rest, with the segment count in Arg[3].
func (e *Engine) groFlush(shard int) {
	slot := &e.gro[shard]
	if !slot.active {
		return
	}
	pkts := slot.pkts
	slot.active = false
	if len(pkts) == 1 {
		e.deliverTCP(shard, pkts[0])
		return
	}
	batch := &groBatch{pkts: append([]*inPkt(nil), pkts...)}
	id := e.db.NewID()
	e.db.Track(id, tcpDest(shard), batch, func(_ uint64, data any) {
		for _, p := range data.(*groBatch).pkts {
			e.recycleRx(p)
		}
	})
	first := pkts[0]
	chain := make([]shm.RichPtr, 0, len(pkts))
	chain = append(chain, first.buf.Slice(first.l4Off, first.buf.Len))
	for _, p := range pkts[1:] {
		chain = append(chain, p.buf.Slice(p.l4Off+p.tcpDataOff, p.buf.Len))
	}
	req := msg.Req{ID: id, Op: msg.OpIPDeliver}
	req.SetChain(chain)
	req.Arg[0] = uint64(first.l4Off)
	req.Arg[1] = uint64(first.srcIP.U32())
	req.Arg[2] = uint64(first.dstIP.U32())
	req.Arg[3] = uint64(len(pkts))
	e.toTCP[shard] = append(e.toTCP[shard], req)
	e.stats.GRODeliveries++
	e.stats.GROCoalesced += uint64(len(pkts) - 1)
}

// deliverTCP ships one segment to its shard uncoalesced.
func (e *Engine) deliverTCP(shard int, pkt *inPkt) {
	id := e.db.NewID()
	e.db.Track(id, tcpDest(shard), pkt, func(_ uint64, data any) {
		e.recycleRx(data.(*inPkt))
	})
	req := msg.Req{ID: id, Op: msg.OpIPDeliver}
	req.SetChain([]shm.RichPtr{pkt.buf.Slice(pkt.l4Off, pkt.buf.Len)})
	req.Arg[0] = uint64(pkt.l4Off)
	req.Arg[1] = uint64(pkt.srcIP.U32())
	req.Arg[2] = uint64(pkt.dstIP.U32())
	e.toTCP[shard] = append(e.toTCP[shard], req)
}

// tcpShardFor computes the owning shard of an inbound segment from the
// local host's view of the 4-tuple: (dstPort, srcIP, srcPort) — the same
// tuple the TCP engines key their connection tables on. The ports were
// parsed at intake; -1 means the segment was too short to carry them.
func (e *Engine) tcpShardFor(pkt *inPkt) int {
	if e.tcpShards <= 1 {
		return 0
	}
	if !pkt.portsOK {
		return -1
	}
	return netpkt.TCPShardOf(pkt.dstPort, pkt.srcIP, pkt.srcPort, e.tcpShards)
}

// deliverDone: the transport is finished with an RX buffer (or, for a
// merged GRO delivery, with the whole run's buffers).
func (e *Engine) deliverDone(r msg.Req) {
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return
	}
	switch d := data.(type) {
	case *inPkt:
		e.recycleRx(d)
	case *groBatch:
		for _, p := range d.pkts {
			e.recycleRx(p)
		}
	}
}

// handleICMP answers echo requests (the ping path, including the
// ping-of-death resilience demo: malformed ICMP is simply dropped).
func (e *Engine) handleICMP(pkt *inPkt) {
	view, err := e.cfg.Space.View(pkt.buf)
	if err != nil {
		return
	}
	icmp := view[pkt.l4Off:]
	echo, err := netpkt.ParseICMPEcho(icmp)
	if err != nil || echo.Type != netpkt.ICMPEchoRequest {
		e.stats.DropsMalformed++
		return
	}
	e.stats.ICMPEchoes++
	// Build the reply: new header chunk holds the whole ICMP message.
	hdrPtr, hdrBuf, err := e.hdrPool.Alloc()
	if err != nil {
		return
	}
	if len(icmp) > len(hdrBuf) {
		_ = e.hdrPool.Free(hdrPtr)
		return
	}
	copy(hdrBuf, icmp)
	rep := netpkt.ICMPEcho{Type: netpkt.ICMPEchoReply, ID: echo.ID, Seq: echo.Seq}
	rep.Marshal(hdrBuf, len(icmp)-netpkt.ICMPHeaderLen)

	// Route it back through our own send path (post-routing filter
	// included), as a transportless packet. The reply is source-bound to
	// the address the echo was addressed to — NOT the egress interface's
	// address: on a multi-homed host the reply may leave through a
	// different NIC than the one carrying the pinged address, and answering
	// from the egress address would break the requester's ID/addr matching.
	ifc, nextHop, ok := e.route(pkt.srcIP, pkt.dstIP)
	if !ok {
		_ = e.hdrPool.Free(hdrPtr)
		return
	}
	// ICMP reply: header chunk IS the payload; build a second chunk with
	// eth+ip.
	framePtr, frameBuf, err := e.hdrPool.Alloc()
	if err != nil {
		_ = e.hdrPool.Free(hdrPtr)
		return
	}
	e.ipid++
	ih := netpkt.IPv4Header{
		TotalLen: uint16(netpkt.IPv4HeaderLen + len(icmp)), ID: e.ipid,
		TTL: netpkt.DefaultTTL, Proto: netpkt.ProtoICMP,
		Src: pkt.dstIP, Dst: pkt.srcIP,
	}
	ih.Marshal(frameBuf[netpkt.EthHeaderLen:], true)
	out := &outPkt{
		ifaceName: ifc.cfg.Name,
		hdr:       framePtr.Slice(0, netpkt.EthHeaderLen+netpkt.IPv4HeaderLen),
		hdrView:   frameBuf[:netpkt.EthHeaderLen+netpkt.IPv4HeaderLen],
		payload:   []shm.RichPtr{hdrPtr.Slice(0, uint32(len(icmp)))},
		totalLen:  netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + len(icmp),
		nextHop:   nextHop,
		dstIP:     pkt.srcIP,
		srcIP:     pkt.dstIP,
		srcProto:  netpkt.ProtoICMP,
		origID:    0,
	}
	out.icmpPayload = hdrPtr
	e.junctionOut(out)
}

// recycleRx frees a receive buffer and resupplies the driver.
func (e *Engine) recycleRx(pkt *inPkt) {
	full := shm.RichPtr{Pool: pkt.buf.Pool, Gen: pkt.buf.Gen,
		Off: pkt.buf.Off - pkt.buf.Off%RxChunkSize, Len: RxChunkSize}
	_ = e.rxPool.Free(full)
	e.resupply(pkt.ifaceName)
}

// dropRx recycles a buffer that needed no further processing.
func (e *Engine) dropRx(name string, buf shm.RichPtr) {
	full := shm.RichPtr{Pool: buf.Pool, Gen: buf.Gen,
		Off: buf.Off - buf.Off%RxChunkSize, Len: RxChunkSize}
	_ = e.rxPool.Free(full)
	e.resupply(name)
}

func (e *Engine) resupply(name string) {
	ifc, ok := e.ifaces[name]
	if !ok {
		return
	}
	if ifc.rxOutstanding >= RxBufsPerDriver {
		// Already at the target complement (Tick tops drivers up every
		// iteration); supplying past it would overflow the device ring.
		return
	}
	ptr, allocOK := e.rxAlloc(ifc, name)
	if !allocOK {
		return
	}
	req := msg.Req{ID: e.db.NewID(), Op: msg.OpRxSupply}
	req.SetChain([]shm.RichPtr{ptr})
	e.toDrv[name] = append(e.toDrv[name], req)
	ifc.rxOutstanding++
}

// SaveState serializes interface configuration.
func (e *Engine) SaveState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e.cfg.Ifaces); err != nil {
		return nil, fmt.Errorf("ipeng: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState replaces the interface configuration from a SaveState blob.
func (e *Engine) RestoreState(blob []byte) error {
	var ifaces []IfaceConfig
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ifaces); err != nil {
		return fmt.Errorf("ipeng: decode: %w", err)
	}
	// Rebuild iface table preserving learned MACs where names match.
	old := e.ifaces
	e.ifaces = make(map[string]*iface, len(ifaces))
	e.order = e.order[:0]
	e.cfg.Ifaces = ifaces
	for _, ic := range ifaces {
		ni := &iface{
			cfg:      ic,
			linkUp:   true,
			arp:      make(map[netpkt.IPAddr]netpkt.MAC),
			pending:  make(map[netpkt.IPAddr][]*outPkt),
			arpSent:  make(map[netpkt.IPAddr]time.Time),
			arpTries: make(map[netpkt.IPAddr]int),
		}
		if o, ok := old[ic.Name]; ok {
			ni.mac, ni.macOK = o.mac, o.macOK
			ni.linkUp = o.linkUp // physical link state outlives config restore
		}
		e.ifaces[ic.Name] = ni
		e.order = append(e.order, ic.Name)
	}
	return nil
}

// Persist saves the configuration through the hook.
func (e *Engine) Persist() {
	if e.cfg.SaveState == nil {
		return
	}
	if blob, err := e.SaveState(); err == nil {
		e.cfg.SaveState(blob)
	}
}

// SetMAC force-sets an interface MAC (used when driver info is delivered
// out of band in tests).
func (e *Engine) SetMAC(name string, mac netpkt.MAC) {
	if ifc, ok := e.ifaces[name]; ok {
		ifc.mac = mac
		ifc.macOK = true
	}
}
