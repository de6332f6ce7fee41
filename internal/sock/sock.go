// Package sock is the application-side socket library — the "C library"
// of NewtOS (paper §V-B). Payload bytes never cross the kernel: they are
// written into (and read out of) per-socket shared buffers, and only
// 12-byte rich pointers travel in the control messages.
//
// Since the event-driven redesign the library speaks ONE protocol to the
// stack: every socket runs in stack-level nonblocking mode, where
// accept/recv/connect reply StatusErrAgain instead of parking in the
// engine, and the engines publish edge-triggered readiness events
// (msg.OpSockEvent) that the client pump demultiplexes. The traditional
// blocking calls are thin wrappers — nonblocking op, then a wait for the
// readiness edge — so there is no second code path, and one goroutine can
// drive thousands of flows through a Poller instead of parking a goroutine
// per socket.
//
// Calls go to a door: the kernel endpoint msg.TCPFrontdoor or
// msg.UDPFrontdoor. Who registered it is the node's business — the SYSCALL
// server, or, on a node without one (paper Table II rows 1 and 2), the
// transport's own process, which hosts the same door (syscallsrv) beside
// the transport. The library cannot tell and does not need to.
package sock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/wiring"
)

// timeoutError implements net.Error so the net.Conn adapters surface
// deadline expiry the way net/http and friends expect.
type timeoutError struct{}

func (timeoutError) Error() string   { return "sock: operation timed out" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// callTimeoutError is a call that waited out Client.CallTimeout with no
// reply. It is ErrTimeout to errors.Is and a timeout to net.Error, and it
// names the call, so a lost request or reply can be found at the door.
type callTimeoutError struct {
	timeoutError
	id     uint64
	op     msg.Op
	flow   uint32
	waited time.Duration
}

func (e callTimeoutError) Error() string {
	return fmt.Sprintf("sock: call %d (%v, flow %d) unanswered after %v: operation timed out", e.id, e.op, e.flow, e.waited)
}

func (callTimeoutError) Is(target error) bool { return target == ErrTimeout }

// Exported errors, mapped from reply statuses.
var (
	ErrTimeout      error = timeoutError{}
	ErrRefused            = errors.New("sock: connection refused")
	ErrReset              = errors.New("sock: connection reset by peer")
	ErrAborted            = errors.New("sock: operation aborted (server restarted)")
	ErrClosed             = errors.New("sock: socket closed")
	ErrAddrInUse          = errors.New("sock: address in use")
	ErrNotConnected       = errors.New("sock: not connected")
	ErrWouldBlock         = errors.New("sock: would block")
	ErrStack              = errors.New("sock: stack error")
	// ErrNoBufs reports buffer-memory exhaustion (ENOBUFS-style): an
	// elastic pool at its hard cap or a socket buffer that could not be
	// provisioned. It matches ErrWouldBlock under errors.Is — the stack
	// may drain and the operation can be retried — but stays
	// distinguishable for callers that want to back off harder than for
	// ordinary flow control.
	ErrNoBufs = fmt.Errorf("sock: no buffer space available (%w)", ErrWouldBlock)
	// ErrNoRoute reports an unreachable destination (EHOSTUNREACH-style):
	// no live route, or a next hop that never answered ARP. Unlike
	// ErrNoBufs it is NOT retry-on-wouldblock — the destination stays
	// unreachable until routing changes.
	ErrNoRoute = errors.New("sock: no route to host")
)

func statusErr(st int32) error {
	switch st {
	case msg.StatusOK:
		return nil
	case msg.StatusErrTimedOut:
		return ErrTimeout
	case msg.StatusErrRefused:
		return ErrRefused
	case msg.StatusErrConnRst:
		return ErrReset
	case msg.StatusErrAborted:
		return ErrAborted
	case msg.StatusErrInUse:
		return ErrAddrInUse
	case msg.StatusErrNotConn:
		return ErrNotConnected
	case msg.StatusErrAgain:
		return ErrWouldBlock
	case msg.StatusErrNoBufs:
		// Buffer memory exhaustion is backpressure (the stack is still
		// draining, or an elastic pool is at its cap), not a stack fault:
		// surface it EWOULDBLOCK-style so callers retry, but keep it
		// distinguishable from plain flow control.
		return ErrNoBufs
	case msg.StatusErrNoRoute:
		return ErrNoRoute
	default:
		return fmt.Errorf("%w: status %d", ErrStack, st)
	}
}

// Proto selects the transport.
type Proto int

// Protocols.
const (
	TCP Proto = iota + 1
	UDP
)

// evKey identifies a socket in the client's event-routing table. TCP and
// UDP socket id spaces overlap, so the protocol is part of the key.
type evKey struct {
	proto Proto
	id    uint32
}

// Client is one application process's handle to the stack. It is safe for
// concurrent use by multiple goroutines (one may block in Recv while
// another Sends): a pump goroutine owns the kernel endpoint's receive side
// and dispatches replies to waiting callers by request ID, and readiness
// events to their sockets by id.
type Client struct {
	hub    *wiring.Hub
	ep     *kipc.Endpoint
	nextID atomic.Uint64
	// CallTimeout bounds the stack's reply to one control message
	// (0 = forever). It is a health bound on the stack's round trip, not
	// an operation timeout: since the nonblocking redesign no call parks
	// in a server, so replies are immediate and waiting for data happens
	// against the socket's deadline instead. A per-socket deadline that
	// expires sooner than CallTimeout overrides it.
	CallTimeout time.Duration

	mu      sync.Mutex
	waiters map[uint64]chan msg.Req
	// orphans records calls abandoned on deadline expiry whose reply may
	// still arrive and carry state nobody else will collect (a dequeued
	// datagram's deliver cookie, an accepted child). The pump consumes the
	// entry when the reply lands. Bounded: replies normally arrive within
	// the stack's round trip, and entries for replies that never come
	// (transport died) are capped by maxOrphans.
	orphans map[uint64]orphanCall
	evs     map[evKey]*evState
	// stop closes when the client is closed or its endpoint is (the node
	// halted): every parked call and event wait then fails with ErrClosed.
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Cached frontdoor endpoint ids, used to attribute an incoming event
	// to its transport (events carry a socket id, and the id spaces of the
	// transports overlap). Refreshed on miss: frontdoors re-register with
	// new ids when a server reincarnates.
	fdMu  sync.Mutex
	fdTCP kipc.EndpointID
	fdUDP kipc.EndpointID
}

// NewClient registers an application endpoint named name.
func NewClient(hub *wiring.Hub, name string) (*Client, error) {
	ep, err := hub.Kern.Register("app/"+name, nil)
	if err != nil {
		return nil, fmt.Errorf("sock: %w", err)
	}
	c := &Client{
		hub: hub, ep: ep, CallTimeout: 10 * time.Second,
		waiters: make(map[uint64]chan msg.Req),
		orphans: make(map[uint64]orphanCall),
		evs:     make(map[evKey]*evState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.pump()
	return c, nil
}

// pump receives every reply and routes it to its caller; readiness events
// route to their socket's event state (and any Poller attached to it). It
// blocks in Receive with no timeout: Close and a node halt both close the
// endpoint, which is the only error Receive then returns.
func (c *Client) pump() {
	defer close(c.done)
	defer c.stopOnce.Do(func() { close(c.stop) })
	for {
		m, err := c.ep.Receive(0)
		if err != nil {
			return // Close, or the node halted under us
		}
		rep := m.Req
		if rep.Op == msg.OpSockEvent {
			c.routeEvent(m.From, rep)
			continue
		}
		c.mu.Lock()
		ch, ok := c.waiters[rep.ID]
		if ok {
			delete(c.waiters, rep.ID)
			// The buffered send happens UNDER the lock: an abandoning
			// caller that finds its waiter gone is then guaranteed to find
			// the reply in the channel, with no in-between window.
			ch <- rep
		}
		orph, abandoned := c.orphans[rep.ID]
		if abandoned {
			delete(c.orphans, rep.ID)
		}
		c.mu.Unlock()
		if ok {
			continue
		}
		if abandoned {
			c.handleOrphan(orph.proto, orph.op, rep)
		} else if rep.Op == msg.OpSockRecvData {
			c.releaseOrphanData(c.protoOf(m.From), rep)
		}
	}
}

// orphanCall remembers what an abandoned call was, so its late reply can
// be collected correctly.
type orphanCall struct {
	proto Proto
	op    msg.Op
}

// maxOrphans bounds the abandoned-call table (entries whose reply never
// arrives — a dead transport — would otherwise accumulate).
const maxOrphans = 4096

// handleOrphan collects the late reply of an abandoned call: received data
// is released, an accepted child the app will never learn about is closed.
func (c *Client) handleOrphan(p Proto, op msg.Op, rep msg.Req) {
	switch {
	case rep.Op == msg.OpSockRecvData:
		c.releaseOrphanData(p, rep)
	case op == msg.OpSockAccept && rep.Op == msg.OpSockReply && rep.Status == msg.StatusOK:
		if child := uint32(rep.Arg[0]); child != 0 {
			_ = c.post(p, msg.Req{Op: msg.OpSockClose, Flow: child})
		}
	}
}

// releaseOrphanData handles a data reply whose caller timed out before it
// arrived. A UDP reply carries a dequeued datagram whose IP buffer is
// held by the deliver cookie — acknowledge it so the pool drains (the
// datagram is lost, which datagram semantics allow). TCP needs nothing:
// the engine keeps the stream bytes queued until a recv-done consumes
// them, so the next Recv simply reads the same data again.
func (c *Client) releaseOrphanData(p Proto, rep msg.Req) {
	if p != UDP || rep.Op != msg.OpSockRecvData || rep.Arg[2] == 0 {
		return
	}
	done := msg.Req{Op: msg.OpSockRecvDone, Flow: rep.Flow}
	done.Arg[0] = rep.Arg[2]
	_ = c.post(UDP, done)
}

// routeEvent delivers one readiness event to the socket it names.
func (c *Client) routeEvent(from kipc.EndpointID, rep msg.Req) {
	proto := c.protoOf(from)
	c.mu.Lock()
	ev := c.evs[evKey{proto, rep.Flow}]
	c.mu.Unlock()
	if ev != nil {
		ev.post(rep.Arg[0])
	}
}

// protoOf attributes a frontdoor sender endpoint to its transport.
func (c *Client) protoOf(from kipc.EndpointID) Proto {
	c.fdMu.Lock()
	defer c.fdMu.Unlock()
	if from == c.fdTCP {
		return TCP
	}
	if from == c.fdUDP {
		return UDP
	}
	if id, ok := c.hub.Kern.Lookup(msg.TCPFrontdoor); ok {
		c.fdTCP = id
	}
	if id, ok := c.hub.Kern.Lookup(msg.UDPFrontdoor); ok {
		c.fdUDP = id
	}
	if from == c.fdUDP {
		return UDP
	}
	return TCP
}

// register creates the event state for a socket. It must run before the
// socket enters nonblocking mode so the arming announcement is never lost.
func (c *Client) register(s *Socket) *evState {
	ev := &evState{sock: s, notify: make(chan struct{}, 1)}
	c.mu.Lock()
	c.evs[evKey{s.proto, s.id}] = ev
	c.mu.Unlock()
	return ev
}

// unregister tears down a socket's event state, waking every waiter.
func (c *Client) unregister(s *Socket) {
	c.mu.Lock()
	delete(c.evs, evKey{s.proto, s.id})
	c.mu.Unlock()
	if s.ev != nil {
		s.ev.close()
	}
}

// Close releases the client's kernel endpoint and stops the pump.
func (c *Client) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.ep.Close()
	<-c.done
}

// frontdoor resolves the kernel endpoint a call must go to.
func (c *Client) frontdoor(p Proto) (kipc.EndpointID, error) {
	name := msg.TCPFrontdoor
	if p == UDP {
		name = msg.UDPFrontdoor
	}
	id, ok := c.hub.Kern.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("sock: no %s endpoint (stack down?)", name)
	}
	return id, nil
}

// call performs one stack call and waits for its reply. The reply wait is
// bounded by CallTimeout (0 = forever) or by deadline, whichever expires
// first; a zero deadline imposes no per-call bound.
func (c *Client) call(p Proto, req msg.Req, deadline time.Time) (msg.Req, error) {
	// An already-expired deadline fails BEFORE the op is issued: sending
	// and then abandoning the reply would consume engine-side state (a
	// dequeued datagram, an accepted child) that nobody collects.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return msg.Req{}, ErrTimeout
	}
	req.ID = c.nextID.Add(1)
	dst, err := c.frontdoor(p)
	if err != nil {
		return msg.Req{}, err
	}
	ch := make(chan msg.Req, 1)
	c.mu.Lock()
	c.waiters[req.ID] = ch
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(c.waiters, req.ID)
		c.mu.Unlock()
	}
	if err := c.ep.Send(dst, kipc.Msg{Req: req}); err != nil {
		cleanup()
		return msg.Req{}, fmt.Errorf("sock: call: %w", err)
	}
	timeout, byDeadline := c.CallTimeout, false
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			c.abandon(p, req, ch)
			return msg.Req{}, ErrTimeout
		}
		if timeout <= 0 || d < timeout {
			timeout, byDeadline = d, true
		}
	}
	var timer *time.Timer
	var expiry <-chan time.Time // nil (blocks forever) when timeout is 0
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expiry = timer.C
	}
	select {
	case rep := <-ch:
		return rep, nil
	case <-expiry:
		c.abandon(p, req, ch)
		if byDeadline {
			return msg.Req{}, ErrTimeout
		}
		return msg.Req{}, callTimeoutError{id: req.ID, op: req.Op, flow: req.Flow, waited: timeout}
	case <-c.stop:
		cleanup()
		return msg.Req{}, ErrClosed
	}
}

// abandon gives up on a call at deadline expiry without losing what its
// reply carries: if the reply is still outstanding, an orphan record lets
// the pump collect it later; if it already raced into the waiter channel
// (the pump buffers under the same lock), it is collected here.
func (c *Client) abandon(p Proto, req msg.Req, ch chan msg.Req) {
	c.mu.Lock()
	if _, waiting := c.waiters[req.ID]; waiting {
		delete(c.waiters, req.ID)
		if (req.Op == msg.OpSockRecv || req.Op == msg.OpSockAccept) && len(c.orphans) < maxOrphans {
			c.orphans[req.ID] = orphanCall{proto: p, op: req.Op}
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	select {
	case rep := <-ch:
		c.handleOrphan(p, req.Op, rep)
	default:
	}
}

// post sends a fire-and-forget message (no reply expected).
func (c *Client) post(p Proto, req msg.Req) error {
	req.ID = c.nextID.Add(1)
	dst, err := c.frontdoor(p)
	if err != nil {
		return err
	}
	return c.ep.Send(dst, kipc.Msg{Req: req})
}
