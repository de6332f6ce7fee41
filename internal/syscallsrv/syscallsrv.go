// Package syscallsrv implements the SYSCALL server (paper §V-B): the one
// server that "pays the trapping toll for the rest of the system". It
// receives synchronous POSIX-style socket calls from applications over
// kernel IPC, peeks into them, and forwards them to the transports over
// asynchronous channels; replies travel the same way back. A reply is
// queued on the application's kernel endpoint and never waits for the
// application to receive it.
//
// The server is a list of doors. A door is one kernel endpoint name
// (msg.TCPFrontdoor, msg.UDPFrontdoor, msg.PFFrontdoor), the edge to the
// one peer behind it, the table of calls awaiting the peer's reply and the
// table of applications subscribed to a socket's readiness events. Where the
// doors run is placement, not code: core gives all three to the SYSCALL
// server's process, or, on a node without one (Table II rows 1 and 2), the
// TCP door to the TCP server's process and the UDP door to UDP's, where the
// transport then combines kernel IPC with its channels in one event loop.
//
// # Recovery
//
// A door keeps the last unfinished operation per call, which gives the
// paper's recovery contract when a peer reincarnates (door.recoverPeer):
// everything in flight to the dead peer is answered msg.StatusErrAborted,
// except recv and accept, which are reissued once against the new
// incarnation (they cause no network traffic); the nonblocking mode of every
// subscribed socket is pushed again, since restored sockets come back in
// blocking mode; and every subscriber is poked with a conservative readiness
// edge, because edges in flight to or from the dead incarnation are gone.
// TCP pokes carry msg.EvError (established connections died with the
// server), UDP's do not (its sockets are restored). Spurious edges are part
// of the event contract; lost ones are not.
//
// For its own restart a door parks its subscription table in the storage
// server (record, written by door.park: paced by staterec.Pacer, parked
// again when storage itself was wiped). The new incarnation restores the
// table in Init, and since its edge is fresh, its first Poll runs the peer
// recovery above: subscribers are re-armed and poked, and no poller stays
// parked on an edge the dead door swallowed. Calls that
// were in flight to a crashing door are not recovered: the application's
// own call timeout ends them (a stated non-goal, docs/ARCHITECTURE.md "The
// doors").
package syscallsrv

import (
	"fmt"
	"time"

	"newtos/internal/msg"
	"newtos/internal/proc"
	"newtos/internal/wiring"
)

// Door describes one door to New: its kernel endpoint name, the edge and
// component name of the peer behind it, and the readiness bits its
// subscribers are poked with when the peer reincarnates.
type Door struct {
	name string
	peer [2]string
	poke uint64
}

// TCP is the door to the TCP server.
func TCP() Door {
	return Door{name: msg.TCPFrontdoor, peer: [2]string{"sc-tcp", "tcp"}, poke: msg.EvError | msg.EvReadable | msg.EvWritable | msg.EvAcceptReady}
}

// UDP is the door to the UDP server.
func UDP() Door {
	return Door{name: msg.UDPFrontdoor, peer: [2]string{"sc-udp", "udp"}, poke: msg.EvReadable | msg.EvWritable}
}

// PF is the door to the packet filter's control plane; PF raises no events.
func PF() Door { return Door{name: msg.PFFrontdoor, peer: [2]string{"sc-pf", "pf"}} }

// StateKey is where the door's record is parked in the storage server.
func (d Door) StateKey() string { return "door/" + d.name }

// Server is one incarnation of a process's doors: all of them in the
// SYSCALL server, one beside its transport otherwise.
type Server struct {
	ports *wiring.Ports
	doors []*door
}

var _ proc.Service = (*Server)(nil)

// New creates an incarnation serving the given doors.
func New(ports *wiring.Ports, doors ...Door) *Server {
	s := &Server{ports: ports}
	for _, spec := range doors {
		s.doors = append(s.doors, &door{Door: spec, store: ports.Hub().Store})
	}
	return s
}

// Init registers the door endpoints and exports the control channels to
// the peers; on restart every door's record is recovered from the storage
// server.
func (s *Server) Init(rt *proc.Runtime, restart bool) error {
	s.ports.Begin(rt.Bell)
	scratch := make([]msg.Req, wiring.ScratchLen)
	for _, d := range s.doors {
		if err := d.init(s.ports, rt, scratch, restart); err != nil {
			return fmt.Errorf("syscallsrv: %w", err)
		}
	}
	return nil
}

// Poll runs every door's iteration.
func (s *Server) Poll(now time.Time) bool {
	wiped := s.ports.StoreWiped()
	worked := false
	for _, d := range s.doors {
		if wiped {
			d.park()
		}
		if d.Poll(now) {
			worked = true
		}
	}
	return worked
}

// OutboxDropped sums the requests the doors' edges shed across peer
// reincarnations (wiring.DropReporter).
func (s *Server) OutboxDropped() uint64 {
	var n uint64
	for _, d := range s.doors {
		n += wiring.SumDropped(d.edge)
	}
	return n
}

// Deadline: the only timers are held-back record flushes.
func (s *Server) Deadline(now time.Time) time.Time {
	var first time.Time
	for _, d := range s.doors {
		if due := d.meta.Deadline(d.entries()); !due.IsZero() && (first.IsZero() || due.Before(first)) {
			first = due
		}
	}
	return first
}

// Stop closes the door endpoints.
func (s *Server) Stop() {
	for _, d := range s.doors {
		d.ep.Close()
	}
}
