// Package transport is the one server shell around the transport engines:
// the channel plumbing, persistence and live-handoff protocol that TCP and
// UDP share word for word. tcpsrv and udpsrv are this shell instantiated
// with their engine, their names and storage keys, and a small adapter
// where the engines' method sets differ.
//
// The shell is where a transport meets the rest of the node. It builds the
// engine over a fresh (or, in a live update, adopted) header pool, recovers
// crash state from the storage server, attaches the two edges every
// transport has — towards IP and towards the SYSCALL server — and runs the
// iteration wiring.Edge spells out. As a proc.Handoffer it captures the
// engine's complete live state for a successor incarnation and restores it
// on the other side, so a planned upgrade loses no event and no peer
// observes the swap (docs/ARCHITECTURE.md "Zero-downtime live update" describes
// the protocol).
package transport

import (
	"fmt"
	"time"

	"newtos/internal/msg"
	"newtos/internal/pfeng"
	"newtos/internal/proc"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/wiring"
)

// hdrSegments is how far a header pool grows under load: Spec.HdrChunks is
// 1/8 of the worst-case complement, reached again segment by segment.
const hdrSegments = 8

// Engine is what the shell drives. tcpeng.Engine has this method set
// natively; udpeng.Engine, which keeps no clock, gets it from udpsrv's
// adapter.
type Engine interface {
	FromIP(r msg.Req, now time.Time)
	FromFront(r msg.Req, now time.Time)
	// Tick runs the timers due at now (TCP's connection timers, UDP's
	// socket-table save), once per iteration.
	Tick(now time.Time)
	DrainToIP() []msg.Req
	DrainToFront() []msg.Req
	// OnIPRestart / OnFrontRestart are the recovery actions for a
	// reincarnated peer (wiring.Edge.Intake's restart hook).
	OnIPRestart()
	OnFrontRestart()
	Deadline(now time.Time) time.Time
	// Flows dumps the active flows for PF's conntrack rebuild.
	Flows() []pfeng.Flow
	// SaveState is the crash image the engine parks in the storage server,
	// HandoffState the live-update image with the TX buffers that cross by
	// handle; Restore reads either (a crash image comes with no handles).
	SaveState() ([]byte, error)
	HandoffState() ([]byte, map[uint32]*sockbuf.Buf, error)
	Restore(blob []byte, bufs map[uint32]*sockbuf.Buf, now time.Time) error
}

// Payload is what crosses the proc handoff channel in a live update: an
// explicit state-transfer message from the old incarnation to its successor,
// not a storage round-trip.
type Payload struct {
	// Engine is the engine's serialized live state (its HandoffState blob).
	Engine []byte
	// ToIP and ToSC are requests the predecessor staged but the queues did
	// not accept; the successor stages them first, so they leave in order
	// ahead of anything it produces itself.
	ToIP, ToSC []msg.Req
	// Handles are the live shared-memory objects the successor adopts.
	Handles Handles
}

// Handles are pointers that cannot (and need not) be serialized: the
// backing objects live in the node's shm.Space, which outlives
// incarnations, so the successor adopts them in place. Every rich pointer
// in the engine blob resolves against these pools unchanged.
type Handles struct {
	// HdrPool is the engine's packet-header pool; in-flight segment
	// headers and un-flushed sends point into it.
	HdrPool *shm.Pool
	// SockBufs maps socket id to its TX buffer; stream chunks and
	// un-recycled send payloads point into these.
	SockBufs map[uint32]*sockbuf.Buf
}

// Env is what the shell wires into every engine the same way: the shared
// space, the registry export of per-socket TX buffers, and persistence.
type Env struct {
	Space        *shm.Space
	PublishBuf   func(sock uint32, buf *sockbuf.Buf)
	UnpublishBuf func(sock uint32)
	SaveState    func(blob []byte)
}

// Spec is everything that differs between one transport server and
// another. E is the concrete engine type Server.Engine hands to tests and
// tools.
type Spec[E any] struct {
	// Name prefixes errors ("tcpsrv"); HdrPool names the header pool
	// (the incarnation number is appended) and HdrChunks sizes its base
	// segment.
	Name      string
	HdrPool   string
	HdrChunks int
	// IPEdge and SCEdge are the edges IP and the SYSCALL server export
	// towards this component.
	IPEdge, SCEdge string
	// StorageKey holds the engine's crash-recovery blob, FlowsKey the flow
	// dump PF rebuilds conntrack from; BufKeyPfx prefixes the registry
	// names of per-socket TX buffers.
	StorageKey, FlowsKey, BufKeyPfx string
	// New builds the engine over its header pool and returns it twice: as
	// itself, and behind the method set the shell drives.
	New func(env Env, hdrPool *shm.Pool) (E, Engine)
}

// Server is one transport server incarnation.
type Server[E any] struct {
	spec  Spec[E]
	ports *wiring.Ports

	eng     E
	drv     Engine
	hdrPool *shm.Pool
	ip, sc  *wiring.Edge
}

// New creates a transport server incarnation.
func New[E any](spec Spec[E], ports *wiring.Ports) *Server[E] {
	return &Server[E]{spec: spec, ports: ports}
}

// Engine exposes the engine for tests and tools.
func (s *Server[E]) Engine() E { return s.eng }

// Init constructs the engine and, on restart, recovers what the engine
// persisted (UDP its whole socket table, TCP its listeners — established
// connections are lost by design) from the storage server. When rt.Handoff
// carries a live-update payload the incarnation instead adopts its
// predecessor's complete state: header pool and TX buffers by handle, the
// engine from its blob, unsent output onto the edges, and the existing
// wiring resumed in place so peers never observe the swap.
func (s *Server[E]) Init(rt *proc.Runtime, restart bool) error {
	hub := s.ports.Hub()
	var payload *Payload
	if rt.Handoff != nil {
		p, ok := rt.Handoff.(*Payload)
		if !ok || p.Handles.HdrPool == nil {
			return fmt.Errorf("%s: unusable handoff payload %T", s.spec.Name, rt.Handoff)
		}
		// In-flight packet headers (and their eventual Free on sendDone)
		// point into the predecessor's pool.
		payload, s.hdrPool = p, p.Handles.HdrPool
	} else {
		pool, err := hub.Space.NewPool(fmt.Sprintf("%s.%d", s.spec.HdrPool, rt.Incarnation), 128, s.spec.HdrChunks)
		if err != nil {
			return fmt.Errorf("%s: %w", s.spec.Name, err)
		}
		pool.SetElastic(shm.Elastic{MaxSegments: hdrSegments})
		s.hdrPool = pool
	}
	s.eng, s.drv = s.spec.New(Env{
		Space: hub.Space,
		PublishBuf: func(sock uint32, buf *sockbuf.Buf) {
			hub.Reg.Publish(s.spec.BufKeyPfx+fmt.Sprint(sock), buf)
		},
		UnpublishBuf: func(sock uint32) {
			hub.Reg.Withdraw(s.spec.BufKeyPfx + fmt.Sprint(sock))
		},
		SaveState: s.save,
	}, s.hdrPool)
	if payload != nil {
		return s.restoreHandoff(rt, payload)
	}
	if restart {
		if blob, ok := hub.Store.Get(s.spec.StorageKey); ok {
			if err := s.drv.Restore(blob, nil, time.Now()); err != nil {
				return fmt.Errorf("%s: restore: %w", s.spec.Name, err)
			}
		}
	}
	s.ports.Begin(rt.Bell)
	s.ip = wiring.NewEdge(s.ports.Attach(s.spec.IPEdge))
	s.sc = wiring.NewEdge(s.ports.Attach(s.spec.SCEdge))
	return nil
}

// restoreHandoff is the rewire and resume half of a live update. The wiring
// is inherited as-is: Resume swaps only the doorbell target (rt.Bell is in
// fact the predecessor's own bell) and the ports are re-acquired without
// subscribing, so generations stay frozen and no peer runs its crash path.
// Output the predecessor could not send is staged first, in order, for this
// incarnation's first Poll.
func (s *Server[E]) restoreHandoff(rt *proc.Runtime, p *Payload) error {
	s.ports.Resume(rt.Bell)
	s.ip = wiring.NewEdge(s.ports.Port(s.spec.IPEdge))
	s.sc = wiring.NewEdge(s.ports.Port(s.spec.SCEdge))
	if err := s.drv.Restore(p.Engine, p.Handles.SockBufs, time.Now()); err != nil {
		return fmt.Errorf("%s: %w", s.spec.Name, err)
	}
	s.ip.Push(p.ToIP...)
	s.sc.Push(p.ToSC...)
	return nil
}

// HandoffState implements proc.Handoffer: it runs on the loop goroutine as
// the old incarnation's final act. The drain rounds before it already
// consumed inbox batches; here the engine's remaining output is staged and
// sent as far as the channels allow, and whatever they refused rides the
// payload so the successor re-pushes it first — zero lost events, in order.
func (s *Server[E]) HandoffState() (any, error) {
	s.ip.Push(s.drv.DrainToIP()...)
	s.sc.Push(s.drv.DrainToFront()...)
	s.ip.Flush()
	s.sc.Flush()
	blob, bufs, err := s.drv.HandoffState()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.spec.Name, err)
	}
	return &Payload{
		Engine:  blob,
		ToIP:    s.ip.TakeStaged(),
		ToSC:    s.sc.TakeStaged(),
		Handles: Handles{HdrPool: s.hdrPool, SockBufs: bufs},
	}, nil
}

// save parks the engine's crash image in the storage server and, beside
// it, the active flows so PF can rebuild its connection tracking after a
// crash. Every server writes its own keys: a restart replaces only its own
// flows, and PF's rebuild is the union.
func (s *Server[E]) save(blob []byte) {
	store := s.ports.Hub().Store
	store.Put(s.spec.StorageKey, blob)
	store.Put(s.spec.FlowsKey, pfeng.EncodeFlows(s.drv.Flows()))
}

// Poll is one iteration: both edges' intake in batches, the engine's
// timers, and each edge flushed once — one doorbell ring per edge.
func (s *Server[E]) Poll(now time.Time) bool {
	if s.ports.StoreWiped() {
		if blob, err := s.drv.SaveState(); err == nil {
			s.save(blob)
		}
	}
	worked := s.ip.Intake(s.drv.OnIPRestart, func(b []msg.Req) {
		for i := range b {
			s.drv.FromIP(b[i], now)
		}
	})
	if s.sc.Intake(s.drv.OnFrontRestart, func(b []msg.Req) {
		for i := range b {
			s.drv.FromFront(b[i], now)
		}
	}) {
		worked = true
	}
	s.drv.Tick(now)
	s.ip.Push(s.drv.DrainToIP()...)
	s.sc.Push(s.drv.DrainToFront()...)
	if s.ip.Flush() {
		worked = true
	}
	if s.sc.Flush() {
		worked = true
	}
	return worked
}

// OutboxDropped sums the requests this server's edges shed across peer
// reincarnations (wiring.DropReporter).
func (s *Server[E]) OutboxDropped() uint64 { return wiring.SumDropped(s.ip, s.sc) }

// Deadline is the engine's earliest timer.
func (s *Server[E]) Deadline(now time.Time) time.Time { return s.drv.Deadline(now) }

// Stop is a no-op: pools die with the incarnation or ride the handoff.
func (s *Server[E]) Stop() {}
