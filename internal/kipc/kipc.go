// Package kipc simulates the microkernel IPC layer underneath the
// multiserver system.
//
// The paper's thesis is that kernel IPC must be kept OFF the fast path:
// every trap pollutes caches and branch predictors, and cross-core kernel
// IPC additionally pays for message copying and inter-processor interrupts.
// To reproduce the performance *shape* of the original system on arbitrary
// hardware, this package charges explicit, configurable costs for each
// kernel entry, each message copy, and (in single-core mode) each context
// switch — calibrated to the paper's measurements: a void system call costs
// ~150 cycles with hot caches (~3000 cold), versus ~30 cycles for a channel
// enqueue (§IV). Every trap here is charged at the hot cost.
//
// A message is MINIX's fixed-size one: the sender, which the kernel fills
// in, and one msg.Req. A send queues the message and returns, like the
// asynchronous send MINIX servers use toward their clients, so a server
// never waits on an application; the receiver takes messages oldest first.
// A hardware interrupt is one trap that rings the driver's doorbell: the
// driver finds the device's completions on its next Poll, so no message
// carries the interrupt itself. Slow-path uses that remain in NewtOS —
// channel setup, syscall entry, interrupt dispatch, and idle-wait (the
// kernel-assisted MWAIT) — run through here.
package kipc

import (
	"errors"
	"sync"
	"time"
	"unsafe"

	"newtos/internal/msg"
)

// EndpointID names a process known to the kernel.
type EndpointID uint32

// Exported errors. ErrClosed also answers a send to an endpoint that is
// gone: to the kernel a closed endpoint and an unknown one are alike.
var (
	ErrClosed     = errors.New("kipc: endpoint closed")
	ErrTimeout    = errors.New("kipc: receive timed out")
	ErrWouldBlock = errors.New("kipc: no message pending")
)

// Msg is the fixed-size kernel message: one request and who sent it. The
// kernel copies it whole from the sender's address space to the
// receiver's; payload never rides in it, only the request's rich pointers.
type Msg struct {
	From EndpointID
	Req  msg.Req
}

// Config sets the simulated cost model.
type Config struct {
	// TrapCost is charged on every kernel call entry (hot caches).
	// The paper measures ~150 cycles; at ~2 GHz that is 75ns.
	TrapCost time.Duration
	// CopyCostPerKB is charged per KB copied between address spaces: one
	// Msg in every Send, one packet in every PacketRendezvous.
	CopyCostPerKB time.Duration
	// ContextSwitchCost is charged at every delivery when SingleCore is
	// set, modelling time-shared servers that must be scheduled in before
	// they can receive.
	ContextSwitchCost time.Duration
	// SingleCore models the original MINIX 3 single-CPU configuration.
	SingleCore bool
}

// DefaultConfig returns the calibrated cost model used by the evaluation:
// 2 GHz cycles, paper §IV numbers.
func DefaultConfig() Config {
	return Config{
		TrapCost:          75 * time.Nanosecond,
		CopyCostPerKB:     250 * time.Nanosecond, // ~4 GB/s cross-space copy
		ContextSwitchCost: 1 * time.Microsecond,
	}
}

// Kernel is one simulated machine's microkernel.
type Kernel struct {
	cfg Config
	// sendCost is what one Send charges: a trap and the copy of one
	// message's request.
	sendCost time.Duration
	mu       sync.Mutex
	eps      map[EndpointID]*Endpoint
	byNm     map[string]EndpointID
	next     EndpointID
}

// New creates a kernel with the given cost model.
func New(cfg Config) *Kernel {
	return &Kernel{
		cfg:      cfg,
		sendCost: cfg.TrapCost + time.Duration(unsafe.Sizeof(msg.Req{}))*cfg.CopyCostPerKB/1024,
		eps:      make(map[EndpointID]*Endpoint),
		byNm:     make(map[string]EndpointID),
	}
}

// Waker is rung when a message lands on an endpoint or an interrupt is
// raised for a driver, so event-loop servers can integrate kernel IPC with
// their channel doorbell (paper §V-B: "we combine the kernel call ... with
// a non-blocking receive").
type Waker interface{ Ring() }

// Register creates an endpoint named name. waker may be nil. If the name
// is already registered, the previous endpoint is revoked first — a new
// incarnation of a crashed server re-registering makes the kernel treat
// the old process as dead (what was queued to it is lost).
func (k *Kernel) Register(name string, waker Waker) (*Endpoint, error) {
	k.mu.Lock()
	if old, dup := k.byNm[name]; dup {
		stale := k.eps[old]
		k.mu.Unlock()
		if stale != nil {
			stale.Close()
		}
		k.mu.Lock()
	}
	defer k.mu.Unlock()
	k.next++
	ep := &Endpoint{
		k:     k,
		id:    k.next,
		name:  name,
		waker: waker,
		wake:  make(chan struct{}, 1),
	}
	k.eps[ep.id] = ep
	k.byNm[name] = ep.id
	return ep, nil
}

// Lookup resolves a name to an endpoint ID.
func (k *Kernel) Lookup(name string) (EndpointID, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	id, ok := k.byNm[name]
	return id, ok
}

// Halt powers the machine off: a machine that goes down takes its processes
// with it, so every registered endpoint is closed. An application that
// outlives its node then sees ErrClosed instead of waiting on a dead stack.
func (k *Kernel) Halt() {
	k.mu.Lock()
	eps := make([]*Endpoint, 0, len(k.eps))
	for _, ep := range k.eps {
		eps = append(eps, ep)
	}
	k.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// Interrupt charges one kernel entry and rings the driver's doorbell: the
// kernel turns a device interrupt into a wake-up of its driver, which then
// polls the device for whatever completed.
func (k *Kernel) Interrupt(driver Waker) {
	spin(k.cfg.TrapCost)
	driver.Ring()
}

// PacketRendezvous charges one synchronous stack<->driver hand-off of an
// n-byte packet under the original MINIX 3 regime (Table II row 1): a
// rendezvous is two traps (send + receive), a cross-space copy of the
// packet, and two context switches on the one time-shared CPU (into the
// receiver and back when it replies). NewtOS moves packets over channels,
// so this is a no-op — before any clock read — unless SingleCore is set.
func (k *Kernel) PacketRendezvous(n int) {
	if !k.cfg.SingleCore {
		return
	}
	spin(2*k.cfg.TrapCost + time.Duration(n)*k.cfg.CopyCostPerKB/1024 + 2*k.cfg.ContextSwitchCost)
}

func (k *Kernel) endpoint(id EndpointID) *Endpoint {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.eps[id]
}

// Endpoint is one process's kernel communication handle. At most one
// goroutine may call Receive/TryReceive on an endpoint at a time (servers
// are single-threaded); any number may Send to it.
type Endpoint struct {
	k     *Kernel
	id    EndpointID
	name  string
	waker Waker

	mu     sync.Mutex
	closed bool
	// queue[head:] are the messages not yet received, oldest first.
	queue []Msg
	head  int
	wake  chan struct{}
}

// ID returns the kernel endpoint identifier.
func (e *Endpoint) ID() EndpointID { return e.id }

// Name returns the registration name.
func (e *Endpoint) Name() string { return e.name }

// kick wakes a blocked receiver and rings the integration waker.
func (e *Endpoint) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
	if e.waker != nil {
		e.waker.Ring()
	}
}

// Send queues m for dst and returns: it never waits for the receiver. The
// kernel charges a trap and the copy of one Msg, and fills in m.From.
func (e *Endpoint) Send(dst EndpointID, m Msg) error {
	spin(e.k.sendCost)
	tgt := e.k.endpoint(dst)
	if tgt == nil {
		return ErrClosed
	}
	m.From = e.id
	tgt.mu.Lock()
	if tgt.closed {
		tgt.mu.Unlock()
		return ErrClosed
	}
	// Reclaim the received prefix once it is at least half the queue, so a
	// queue that never drains completely does not grow without bound and
	// each message is moved at most once per reclaim it survives.
	if len(tgt.queue) == cap(tgt.queue) && tgt.head >= len(tgt.queue)/2 {
		tgt.queue = tgt.queue[:copy(tgt.queue, tgt.queue[tgt.head:])]
		tgt.head = 0
	}
	tgt.queue = append(tgt.queue, m)
	tgt.mu.Unlock()
	tgt.kick()
	return nil
}

// Receive blocks until a message arrives, oldest first, or timeout elapses
// (timeout <= 0 waits forever).
func (e *Endpoint) Receive(timeout time.Duration) (Msg, error) {
	spin(e.k.cfg.TrapCost)
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if m, ok, err := e.tryDequeue(); err != nil || ok {
			return m, err
		}
		var wait time.Duration
		if !deadline.IsZero() {
			wait = time.Until(deadline)
			if wait <= 0 {
				return Msg{}, ErrTimeout
			}
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-e.wake:
				t.Stop()
			case <-t.C:
			}
		} else {
			<-e.wake
		}
	}
}

// TryReceive is the non-blocking receive used by event loops that combine
// kernel IPC with channel polling. It charges no trap cost by itself — the
// loop already paid when it entered the idle-wait kernel call.
func (e *Endpoint) TryReceive() (Msg, error) {
	m, ok, err := e.tryDequeue()
	if err != nil {
		return Msg{}, err
	}
	if !ok {
		return Msg{}, ErrWouldBlock
	}
	return m, nil
}

// keptQueue is the largest backing array a drained queue keeps. A receiver
// that keeps up holds a few messages at a time: a reply per call in flight
// and the readiness events between its receives. A larger array is what a
// backlog left behind, and keeping it would pin the backlog's peak, at
// about 350 B a message, for the endpoint's life.
const keptQueue = 64

func (e *Endpoint) tryDequeue() (Msg, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return Msg{}, false, ErrClosed
	}
	if e.head == len(e.queue) {
		return Msg{}, false, nil
	}
	m := e.queue[e.head]
	e.head++
	if e.head == len(e.queue) {
		e.queue, e.head = e.queue[:0], 0
		if cap(e.queue) > keptQueue {
			e.queue = nil
		}
	}
	if e.k.cfg.SingleCore {
		spin(e.k.cfg.ContextSwitchCost)
	}
	return m, true, nil
}

// Close tears the endpoint down. What is queued to it is dropped, and its
// receiver and later senders get ErrClosed; the name is released so a
// restarted incarnation can re-register.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.queue, e.head = nil, 0
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
	e.k.mu.Lock()
	delete(e.k.eps, e.id)
	delete(e.k.byNm, e.name)
	e.k.mu.Unlock()
}

// spin busy-waits for d, modelling CPU cost that does not yield the core
// (a trap, a copy, a context switch).
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}
