package sock

import (
	"errors"
	"sync"
	"time"

	"newtos/internal/msg"
)

// evState accumulates readiness edges for one socket on the client side.
// Edges are sticky: a bit posted while nobody waits is consumed by the
// next waiter, so the "op returned EAGAIN, then the edge fired before the
// wait was armed" race cannot lose a wakeup.
type evState struct {
	sock *Socket

	mu     sync.Mutex
	bits   uint64
	closed bool
	poller *Poller
	mask   uint64

	// notify is closed-and-replaced on every wake: a BROADCAST, because
	// one socket may have a reader and a writer blocked at once (net.Conn
	// allows it) waiting on different bits — a single token could wake
	// the wrong one and leave the right one asleep on a posted bit, and
	// nothing re-checks it.
	notify chan struct{}
}

// post merges freshly announced bits and wakes the waiters and any poller.
func (ev *evState) post(bits uint64) {
	ev.mu.Lock()
	ev.bits |= bits
	p, mask := ev.poller, ev.mask
	ev.mu.Unlock()
	ev.wake()
	if p != nil && bits&mask != 0 {
		p.post(ev.sock, bits&mask)
	}
}

// wake broadcasts to every blocked waiter (used by post, deadline changes,
// close). Waiters capture the channel under the same lock as the bits
// check, so a wake between check and wait is never lost.
func (ev *evState) wake() {
	ev.mu.Lock()
	close(ev.notify)
	ev.notify = make(chan struct{})
	ev.mu.Unlock()
}

// close marks the socket dead and wakes everyone: the blocked waiter
// returns ErrClosed, a poller reports an EvError edge so its loop can Del
// the socket.
func (ev *evState) close() {
	ev.mu.Lock()
	ev.closed = true
	p := ev.poller
	ev.poller = nil
	ev.mu.Unlock()
	ev.wake()
	if p != nil {
		// The pending-event entry stays until Wait delivers it: the poll
		// loop must observe the EvError edge to Del the dead socket.
		p.post(ev.sock, msg.EvError)
	}
}

// ErrPollerClosed reports Wait on a closed Poller.
var ErrPollerClosed = errors.New("sock: poller closed")

// Event is one readiness report from a Poller.
type Event struct {
	Sock *Socket
	// Bits is the union of msg.Ev* edges announced since the socket was
	// last reported. Edges are hints: re-issue the nonblocking op and
	// treat ErrWouldBlock as "not yet" (spurious wakeups are part of the
	// contract, in particular after a server restart).
	Bits uint64
}

// Poller demultiplexes readiness events for many sockets onto one
// goroutine — the event-driven alternative to goroutine-per-socket
// blocking calls. Typical loop:
//
//	poller := client.NewPoller()
//	listener.SetNonblock(true)
//	poller.Add(listener, msg.EvAcceptReady|msg.EvError)
//	for {
//		events, _ := poller.Wait(-1)
//		for _, e := range events {
//			// nonblocking Accept/Recv/Send until ErrWouldBlock
//		}
//	}
//
// Events are edge-triggered: after a wakeup, drain the socket until
// ErrWouldBlock or the edge will not repeat for data already queued.
type Poller struct {
	c *Client

	mu     sync.Mutex
	ready  map[*Socket]uint64
	closed bool

	notify chan struct{}
}

// NewPoller creates a Poller over this client's sockets.
func (c *Client) NewPoller() *Poller {
	return &Poller{c: c, ready: make(map[*Socket]uint64), notify: make(chan struct{}, 1)}
}

// Add subscribes the poller to a socket's events matching mask. The
// socket's current pending bits are delivered immediately (level-check on
// arm), so arming after an edge cannot deadlock. A socket belongs to at
// most one poller; Add replaces a previous subscription.
func (p *Poller) Add(s *Socket, mask uint64) error {
	if s.c != p.c {
		return errors.New("sock: poller and socket belong to different clients")
	}
	ev := s.ev
	ev.mu.Lock()
	if ev.closed {
		ev.mu.Unlock()
		return ErrClosed
	}
	old := ev.poller
	ev.poller = p
	ev.mask = mask
	pending := ev.bits & mask
	ev.mu.Unlock()
	if old != nil && old != p {
		// Migration: the previous poller must not keep reporting (and
		// pinning) a socket it no longer owns.
		old.forget(s)
	}
	if pending != 0 {
		p.post(s, pending)
	}
	return nil
}

// Del unsubscribes a socket and drops its undelivered events.
func (p *Poller) Del(s *Socket) {
	ev := s.ev
	ev.mu.Lock()
	if ev.poller == p {
		ev.poller = nil
		ev.mask = 0
	}
	ev.mu.Unlock()
	p.forget(s)
}

// post records bits for a socket and wakes Wait.
func (p *Poller) post(s *Socket, bits uint64) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.ready[s] |= bits
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// forget drops a socket's undelivered events.
func (p *Poller) forget(s *Socket) {
	p.mu.Lock()
	delete(p.ready, s)
	p.mu.Unlock()
}

// Wait blocks until at least one subscribed socket has pending events and
// returns them (consuming the edges). timeout < 0 waits forever; 0 polls;
// otherwise Wait returns (nil, nil) when the timeout elapses first.
func (p *Poller) Wait(timeout time.Duration) ([]Event, error) {
	var expiry <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expiry = t.C
	}
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPollerClosed
		}
		if len(p.ready) > 0 {
			events := make([]Event, 0, len(p.ready))
			for s, bits := range p.ready {
				events = append(events, Event{Sock: s, Bits: bits})
				delete(p.ready, s)
			}
			p.mu.Unlock()
			return events, nil
		}
		p.mu.Unlock()
		if timeout == 0 {
			return nil, nil
		}
		select {
		case <-p.notify:
		case <-expiry:
			return nil, nil
		case <-p.c.stop:
			return nil, ErrClosed
		}
	}
}

// Close invalidates the poller: concurrent and future Waits fail with
// ErrPollerClosed. Sockets stay usable (and re-Addable to a new poller).
func (p *Poller) Close() {
	p.mu.Lock()
	p.closed = true
	p.ready = make(map[*Socket]uint64)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
}
