// Package ipsrv is the IP server: the channel shell around the ipeng
// engine. IP is the hub of the stack (paper Figure 3): it is the creator of
// the channels towards the drivers, the packet filter, TCP and UDP, and it
// hands every packet to PF three times per traversal of the T junction
// without being the bottleneck. The shell knows its neighbours only as the
// engine's peer table: it exports one edge per ipeng.Peers() entry, in that
// order, and every loop iteration calls the engine's triple — Restart,
// From, Drain — with the entry's index.
package ipsrv

import (
	"fmt"
	"time"

	"newtos/internal/ipeng"
	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/wiring"
)

// StorageKey is where IP parks its configuration.
const StorageKey = "ip/config"

// Config assembles an IP server. Each interface's driver is the component
// of the same name, on edge "ip-<name>".
type Config struct {
	Ifaces    []ipeng.IfaceConfig
	PFEnabled bool
	Offload   bool
}

// Server is one IP server incarnation.
type Server struct {
	cfg   Config
	ports *wiring.Ports

	eng *ipeng.Engine
	// edges[i] is the edge to the engine's peer i (ipeng.Peers() order:
	// every driver, PF, TCP, UDP). A single peer's
	// reincarnation aborts only that peer's in-flight work.
	edges []*wiring.Edge
	// cur is the peer whose edge is in Intake, for its two hooks
	// (restartCur, fromCur).
	cur int
	// scratch is the reusable drain buffer all edges share (the loop is
	// single-threaded and each batch is fully processed before the next
	// drain); now is the current iteration's timestamp, for the hooks.
	scratch []msg.Req
	now     time.Time
}

var _ proc.Service = (*Server)(nil)

// New creates an IP server incarnation.
func New(cfg Config, ports *wiring.Ports) *Server {
	return &Server{cfg: cfg, ports: ports}
}

// Engine exposes the engine for white-box assertions in tests.
func (s *Server) Engine() *ipeng.Engine { return s.eng }

// Init builds the engine (fresh, elastic pools), restores configuration
// from the storage server when restarting, and exports all of IP's channels.
func (s *Server) Init(rt *proc.Runtime, restart bool) error {
	hub := s.ports.Hub()
	eng, err := ipeng.New(ipeng.Config{
		Space:     hub.Space,
		Ifaces:    s.cfg.Ifaces,
		PFEnabled: s.cfg.PFEnabled,
		Offload:   s.cfg.Offload,
		Elastic:   ipeng.DefaultElastic(),
		SaveState: func(blob []byte) { hub.Store.Put(StorageKey, blob) },
	})
	if err != nil {
		return fmt.Errorf("ipsrv: %w", err)
	}
	s.eng = eng
	if restart {
		if blob, ok := hub.Store.Get(StorageKey); ok {
			if err := s.eng.RestoreState(blob); err != nil {
				return fmt.Errorf("ipsrv: restore: %w", err)
			}
		}
	}
	s.eng.Persist()

	s.ports.Begin(rt.Bell)
	for _, p := range eng.Peers() {
		s.edges = append(s.edges, wiring.NewEdge(s.ports.Export("ip-"+p.Name, p.Name)))
	}
	s.scratch = make([]msg.Req, wiring.ScratchLen)

	// Inject faults that corrupt routing state (fault-injection hook).
	rt.Fault.SetCorruptHook(func() {
		_ = s.eng.RestoreState([]byte{0xff}) // guaranteed decode error: engine keeps old config
	})
	return nil
}

func (s *Server) restartCur()         { s.eng.Restart(s.cur, s.now) }
func (s *Server) fromCur(b []msg.Req) { s.eng.From(s.cur, b, s.now) }

// Poll drains every edge in batches, runs the whole intake through the
// engine, and flushes each destination's accumulated output once — one
// doorbell ring per edge per iteration, not per request.
func (s *Server) Poll(now time.Time) bool {
	s.now = now
	if s.ports.StoreWiped() {
		s.eng.Persist()
	}
	worked := false
	for i, e := range s.edges {
		s.cur = i
		if e.Intake(s.scratch, s.restartCur, s.fromCur) {
			worked = true
		}
	}

	// The engine's timers: ARP retries and give-ups, pool segments
	// retiring. A comparison and two loads when none is due.
	s.eng.Tick(now)

	for i, e := range s.edges {
		e.Push(s.eng.Drain(i)...)
		if e.Flush() {
			worked = true
		}
	}
	return worked
}

// OutboxDropped sums the requests every IP edge shed across peer
// reincarnations (wiring.DropReporter).
func (s *Server) OutboxDropped() uint64 { return wiring.SumDropped(s.edges...) }

// Deadline is the engine's: the earliest ARP retry or give-up, or the
// next retirement of a grown pool segment; zero when neither is pending,
// and the loop then sleeps until a peer rings.
func (s *Server) Deadline(now time.Time) time.Time { return s.eng.Deadline() }

// Stop is a no-op; pools die with the incarnation.
func (s *Server) Stop() {}
