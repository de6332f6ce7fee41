// Package wiring implements channel management between servers
// (paper §IV-C): servers announce their presence through a
// publish/subscribe mechanism; a channel's creator exports it to the peer;
// peers attach, and when a server restarts, its channels are re-created and
// re-exported while survivors detach from the stale ones.
//
// Conventions encoded here:
//
//   - every server publishes "bell/<name>" (its doorbell) once per
//     incarnation — this is the presence announcement;
//   - for every edge, exactly one side is the creator; it subscribes to the
//     peer's bell and (re-)creates the duplex whenever either side
//     reincarnates, publishing the peer's end under "chan/<edge>";
//   - the non-creator subscribes to "chan/<edge>" and picks up each new
//     incarnation of the channel.
//
// A Port is one server's end of one edge. Port generations let the owning
// event loop notice "the peer (or the channel) changed" exactly once and
// run its crash-recovery actions (abort requests, resubmit, resupply).
//
// The loops' shared data-path primitive lives here as well
// (docs/ARCHITECTURE.md "The doorbell contract"): Edge owns one edge's Port
// and what it has written and not yet flushed, and spells the iteration
// every server loop runs — Intake, engine, Push, Flush — including the one
// rule for what happens to unflushed output when the peer reincarnates
// under it.
package wiring

import (
	"sync"
	"sync/atomic"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/shm"
	"newtos/internal/storage"
)

// Hub bundles the per-node shared infrastructure every server receives.
type Hub struct {
	// Reg is the channel registry (publish/subscribe name board).
	Reg *channel.Registry
	// Space is the shared-memory space (the VM-manager role).
	Space *shm.Space
	// Kern is the microkernel (slow-path IPC, interrupts).
	Kern *kipc.Kernel
	// Store is the state storage server facade.
	Store *storage.Store
}

// NewHub creates the shared infrastructure for one node.
func NewHub(kern *kipc.Kernel) *Hub {
	return &Hub{
		Reg:   channel.NewRegistry(),
		Space: shm.NewSpace(),
		Kern:  kern,
		Store: storage.NewStore(),
	}
}

// Port is one server's end of one edge. Safe for a single owning loop plus
// concurrent rebinds from registry callbacks.
type Port struct {
	// owner and edge name this end: the component holding it and the edge.
	owner *Ports
	edge  string

	// gen advances every time a rebind installs a fresh duplex; the owner
	// compares it with the generation it holds, so an iteration without a
	// rebind reads it without the lock.
	gen atomic.Int64

	mu   sync.Mutex
	dup  channel.Duplex // the duplex at generation gen
	seen int
	cur  channel.Duplex // the duplex at generation seen: what the owner holds
}

// set installs a new incarnation of the channel.
func (p *Port) set(d channel.Duplex) {
	p.mu.Lock()
	p.dup = d
	p.gen.Add(1)
	p.mu.Unlock()
}

// take adopts, on behalf of the owning loop, a duplex newer than held, the
// generation the owner holds. It returns the new duplex and its generation
// and changed = true, or changed = false after one atomic load when nothing
// was rebound. A change means the peer (or this end) reincarnated: the
// owner must run its abort/resubmit recovery actions (Edge.Intake does).
func (p *Port) take(held int) (dup channel.Duplex, gen int, changed bool) {
	if p.latest() == held {
		return channel.Duplex{}, held, false
	}
	// The lock is taken only after a rebind, while a peer reincarnates.
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen, p.cur = int(p.gen.Load()), p.dup
	return p.cur, p.seen, true
}

// held returns the duplex and generation the owner last took, without
// adopting a pending rebind.
func (p *Port) held() (channel.Duplex, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur, p.seen
}

// latest returns the newest generation of the edge's channel. It advances
// every time a rebind installs a fresh duplex (either side reincarnated);
// while it is ahead of what the owner took, a rebind is pending and nothing
// staged for the held duplex may survive into the next incarnation.
func (p *Port) latest() int { return int(p.gen.Load()) }

// Ports manages one component's edges across incarnations. It is held by
// the component's factory closure (it outlives incarnations); each
// incarnation calls Begin and then re-declares its edges.
type Ports struct {
	hub  *Hub
	name string

	// bell is the current incarnation's doorbell.
	bell atomic.Pointer[channel.Doorbell]

	mu      sync.Mutex
	cancels []func()
	ports   map[string]*Port
	depth   int

	// storeGen is the storage generation the owning loop last saw
	// (StoreWiped); it outlives the component's own incarnations, so a
	// storage crash during its downtime is noticed too. watching is set
	// once the store rings this component's bell on a wipe.
	storeGen uint32
	watching bool
}

// NewPorts creates the edge manager for the named component.
func NewPorts(hub *Hub, name string) *Ports {
	return &Ports{
		hub:   hub,
		name:  name,
		ports: make(map[string]*Port),
		depth: channel.DefaultDepth,
	}
}

// SetDepth overrides the queue depth for subsequently created channels.
func (ps *Ports) SetDepth(depth int) { ps.depth = depth }

// Name returns the component name.
func (ps *Ports) Name() string { return ps.name }

// Hub returns the node infrastructure.
func (ps *Ports) Hub() *Hub { return ps.hub }

// StoreWiped reports, once, that the storage server reincarnated since the
// last call: it lost what this server parked there, and the server must
// park it again (paper §V-D: "every other server has to store its state
// again"). A storage peer has no channel whose Port generation would say
// so; owning loops ask once per iteration instead. The first call also
// makes every later wipe ring this component's current doorbell, so a loop
// that only polls when rung still asks in time.
func (ps *Ports) StoreWiped() bool {
	if !ps.watching {
		ps.watching = true
		ps.hub.Store.Watch(ps.ring)
	}
	seen := ps.storeGen
	ps.storeGen = ps.hub.Store.Gen()
	return ps.storeGen != seen
}

// ring rings the doorbell of the component's current incarnation.
func (ps *Ports) ring() {
	if bell := ps.bell.Load(); bell != nil {
		bell.Ring()
	}
}

// Begin starts a new incarnation: previous subscriptions are cancelled
// (the old incarnation's exports die with it) and the component's presence
// is announced with its new doorbell.
func (ps *Ports) Begin(bell *channel.Doorbell) {
	ps.mu.Lock()
	cancels := ps.cancels
	ps.cancels = nil
	ps.bell.Store(bell)
	ps.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	ps.hub.Reg.Publish("bell/"+ps.name, bell)
}

// Resume continues the previous incarnation's wiring in a live-handoff
// successor. Unlike Begin, nothing is cancelled and nothing is
// re-announced: the successor inherits the predecessor's doorbell, so
// every duplex the peers hold keeps ringing the right bell, every
// subscription stays valid, and no port generation advances — peers never
// observe the swap and run no crash-recovery actions. bell must be the
// inherited doorbell (proc hands it to the successor's Runtime).
func (ps *Ports) Resume(bell *channel.Doorbell) { ps.bell.Store(bell) }

// Port returns the stable Port for an edge without subscribing. The
// handoff path re-acquires the ports its predecessor already attached or
// exported; adding another subscription would double-deliver rebinds.
func (ps *Ports) Port(edge string) *Port {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.port(edge)
}

// port returns (creating if needed) the stable Port for an edge. Ports are
// stable across incarnations so the loop's "changed" detection spans
// restarts.
func (ps *Ports) port(edge string) *Port {
	if p, ok := ps.ports[edge]; ok {
		return p
	}
	p := &Port{owner: ps, edge: edge}
	ps.ports[edge] = p
	return p
}

// Export declares this component the creator of edge towards peerName.
// Whenever the peer announces a (new) bell, a fresh duplex is created: this
// side keeps one end, the other end is published under "chan/<edge>" for
// the peer to attach. Returns this side's Port.
func (ps *Ports) Export(edge, peerName string) *Port {
	ps.mu.Lock()
	p := ps.port(edge)
	depth := ps.depth
	ps.mu.Unlock()
	myBell := ps.bell.Load()

	cancel := ps.hub.Reg.Subscribe("bell/"+peerName, func(a channel.Announcement) {
		peerBell, ok := a.Value.(*channel.Doorbell)
		if !ok || peerBell == nil {
			return
		}
		mine, theirs, err := channel.NewDuplex(depth, myBell, peerBell)
		if err != nil {
			return
		}
		p.set(mine)
		ps.hub.Reg.Publish("chan/"+edge, theirs)
		myBell.Ring()
	})
	ps.mu.Lock()
	ps.cancels = append(ps.cancels, cancel)
	ps.mu.Unlock()
	return p
}

// Attach declares this component the non-creating side of edge: it picks up
// each incarnation of the channel the creator publishes.
func (ps *Ports) Attach(edge string) *Port {
	ps.mu.Lock()
	p := ps.port(edge)
	ps.mu.Unlock()
	myBell := ps.bell.Load()

	cancel := ps.hub.Reg.Subscribe("chan/"+edge, func(a channel.Announcement) {
		dup, ok := a.Value.(channel.Duplex)
		if !ok {
			return
		}
		p.set(dup)
		myBell.Ring()
	})
	ps.mu.Lock()
	ps.cancels = append(ps.cancels, cancel)
	ps.mu.Unlock()
	return p
}
