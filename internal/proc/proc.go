// Package proc implements the server process model of the multiserver
// system: each OS component is a single-threaded, asynchronous, event-driven
// process. The paper gives each one a dedicated core; here one Runner per
// processor (GOMAXPROCS of them) steps the components in turn, each
// component by one runner at a time, so the Go scheduler rotates a handful
// of runners, not every component.
//
// Stepping realizes the paper's design rules: the runners poll a server's
// channels aggressively while work keeps arriving; once a poll comes back
// empty they watch only the server's doorbell (the memory location MONITOR
// watches) and poll again only when a producer rings or the service's
// deadline falls due; nothing else polls an idle server. When no server
// has work a runner yields for a short while and then naps on its own
// armed doorbell (MWAIT), which every server's doorbell also rings, until
// the earliest server deadline or, with none, until a ring. Panics are
// contained to the
// incarnation and reported as crash signals to the reincarnation server;
// restarted incarnations are told they are restarting so they can recover
// state from the storage server.
package proc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/channel"
	"newtos/internal/faults"
)

// Status of a process incarnation.
type Status int32

// Status values.
const (
	StatusIdle Status = iota + 1
	StatusRunning
	StatusCrashed
	StatusStopped
)

func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusRunning:
		return "running"
	case StatusCrashed:
		return "crashed"
	case StatusStopped:
		return "stopped"
	}
	return fmt.Sprintf("status(%d)", int32(s))
}

// CrashEvent is the signal the reincarnation server receives when a child
// dies (the paper: servers are children of the reincarnation server, which
// "receives a signal when a server crashes").
type CrashEvent struct {
	Name        string
	Incarnation int
	Reason      string
	Injected    bool
	When        time.Time
}

// Runtime is what an incarnation gets from its process wrapper.
type Runtime struct {
	// Bell is this incarnation's doorbell; give it to every inbound
	// channel and to the kernel endpoint so any arrival wakes the loop.
	Bell *channel.Doorbell
	// Fault is the incarnation's fault-injection point.
	Fault *faults.Point
	// Incarnation counts from 1 and increments per restart.
	Incarnation int
	// Handoff is non-nil when this incarnation is the successor of a
	// zero-downtime live update: it carries the predecessor's serialized
	// state (whatever its HandoffState returned). The Bell is then the
	// predecessor's doorbell — every channel peers hold keeps ringing it —
	// and Init must resume the existing wiring instead of re-announcing.
	Handoff any
}

// Service is one server's logic, constructed fresh for every incarnation.
type Service interface {
	// Init wires channels (publishing/attaching via the registry) and, when
	// restart is true, recovers state from the storage server.
	Init(rt *Runtime, restart bool) error
	// Poll processes pending work and reports whether it did any.
	Poll(now time.Time) bool
	// Deadline returns when Poll next needs to run for timer work
	// (zero time means no pending timers).
	Deadline(now time.Time) time.Time
	// Stop releases resources on graceful shutdown.
	Stop()
}

// Handoffer is a Service that supports zero-downtime live update: a
// planned drain-and-handoff swap to a successor incarnation that inherits
// the doorbell, the channels, and the live protocol state — no event is
// lost and peers never observe the swap.
type Handoffer interface {
	Service
	// HandoffState serializes the service's complete live state for the
	// successor incarnation. It runs on a runner as the incarnation's
	// final step, after the drain rounds quiesced the engine at a batch
	// boundary: the incarnation leaves the runners right after, and the
	// successor's Init observes the returned payload via Runtime.Handoff
	// with a full happens-before chain (handoff channel send, then the
	// successor's Init on the upgrading goroutine).
	HandoffState() (any, error)
}

// HandoffReport times the phases of one planned live update — the
// measurable pause of the drain-and-handoff protocol (docs/ARCHITECTURE.md
// "Zero-downtime live update"): drain (quiesce the old loop at a batch
// boundary), transfer (serialize live state onto the handoff channel),
// rewire (successor Init: re-point ports, restore state, re-arm timers,
// re-announce readiness edges), resume (until the runners have stepped the
// successor once).
type HandoffReport struct {
	Component                       string
	Drain, Transfer, Rewire, Resume time.Duration
}

// Total is the whole pause: the window in which the engine was not polling.
func (h HandoffReport) Total() time.Duration {
	return h.Drain + h.Transfer + h.Rewire + h.Resume
}

func (h HandoffReport) String() string {
	return fmt.Sprintf("%s live-handoff: drain=%v transfer=%v rewire=%v resume=%v total=%v",
		h.Component, h.Drain, h.Transfer, h.Rewire, h.Resume, h.Total())
}

// handoffDrainRounds bounds the quiesce: each round is one Poll, which
// flushes staged output. The inboxes need not run dry — the successor
// consumes the very same queues — so a saturated loop cannot stall a swap.
const handoffDrainRounds = 64

type handoffReq struct{ done chan handoffRes }

type handoffRes struct {
	state           any
	err             error
	drain, transfer time.Duration
}

// Proc supervises one component across incarnations.
type Proc struct {
	name    string
	factory func() Service
	onCrash func(CrashEvent)

	mu      sync.Mutex
	cur     *incarnation
	incNum  int
	status  atomic.Int32
	crashes atomic.Int32
	// polls counts the service's Polls; pastDeadlines the empty ones after
	// which its Deadline was not after the Poll's now.
	polls, pastDeadlines atomic.Uint64
	// unflushed (under mu) counts the empty Polls that left an edge holding
	// pushes no Flush followed; unflushedEdges names the edges the last of
	// them left.
	unflushed      uint64
	unflushedEdges []string
}

type incarnation struct {
	p       *Proc
	num     int
	svc     Service
	rt      *Runtime
	stop    chan struct{}
	done    chan struct{} // closed after the incarnation's last step
	handoff chan *handoffReq
	// stepped is closed after the incarnation's first step.
	stepped chan struct{}
	// signaled is raised after stop is closed or a handoff request is
	// queued, and before the bell rings: the runner looks at those
	// channels only when it is up.
	signaled atomic.Bool
	valid    atomic.Bool // false once abandoned/superseded
	// ready flips after Init succeeds; Service() hides the incarnation
	// until then, so observers never see a service mid-construction.
	ready atomic.Bool
	// busy is when the step a runner is taking of this incarnation began,
	// in Unix nanoseconds, and 0 between steps: moving it from 0 claims
	// the incarnation for one step. It is negated once that runner has
	// been replaced in the middle of the step (isolate).
	busy atomic.Int64

	// Owned by the runner holding the claim. The idle gate: idle says the
	// last Poll came back empty, seen is the bell's post count read
	// before it, and due is when a runner polls anyway: the service's
	// deadline, zero for none.
	idle  bool
	seen  uint64
	due   time.Time
	begun bool // the first step has been taken (stepped is closed)
	gone  bool // the last step has been taken
}

// New creates a process. factory builds a fresh Service per incarnation;
// onCrash (may be nil) is invoked from the runner that stepped the dying
// incarnation, or from the launching goroutine when Init panicked.
func New(name string, factory func() Service, onCrash func(CrashEvent)) *Proc {
	p := &Proc{name: name, factory: factory, onCrash: onCrash}
	p.status.Store(int32(StatusIdle))
	return p
}

// Name returns the component name.
func (p *Proc) Name() string { return p.name }

// Status returns the current lifecycle status.
func (p *Proc) Status() Status { return Status(p.status.Load()) }

// Crashes returns how many incarnations have died.
func (p *Proc) Crashes() int { return int(p.crashes.Load()) }

// Polls returns how many times the runners have polled the component,
// across incarnations.
func (p *Proc) Polls() uint64 { return p.polls.Load() }

// PastDeadlines returns how many empty Polls left a Deadline at or before
// their own now, across incarnations. Each one breaks the deadline
// contract (the Poll at a due instant consumes it): the runners poll such
// a member over and over until the clock moves past its deadline.
func (p *Proc) PastDeadlines() uint64 { return p.pastDeadlines.Load() }

// Unflushed returns how many empty Polls left an edge holding requests
// pushed since its last Flush, across incarnations, and the edges the last
// of them left ("component:edge"). Each one breaks the doorbell contract
// (one Flush per edge per iteration): the runners wait for a ring, and no
// ring will ever announce those requests to the peer.
func (p *Proc) Unflushed() (uint64, []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unflushed, p.unflushedEdges
}

// Incarnation returns the current incarnation number.
func (p *Proc) Incarnation() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.incNum
}

// BusySince returns when a runner began the step it is taking of the live
// incarnation, or the zero time when it is between steps. A step
// lasts one Poll, so a stamp that grows old is a hung component.
func (p *Proc) BusySince() time.Time {
	p.mu.Lock()
	inc := p.cur
	p.mu.Unlock()
	if inc == nil {
		return time.Time{}
	}
	s := inc.busy.Load()
	if s == 0 {
		return time.Time{}
	}
	return time.Unix(0, max(s, -s))
}

// Isolate replaces the runner stepping the live incarnation when that
// step has run longer than overrun, so the other members again have
// GOMAXPROCS runners; the stuck runner exits once the step returns. It
// reports whether it replaced a runner.
func (p *Proc) Isolate(overrun time.Duration) bool {
	p.mu.Lock()
	inc := p.cur
	p.mu.Unlock()
	if inc == nil {
		return false
	}
	runners.mu.Lock()
	defer runners.mu.Unlock()
	return isolate(inc, overrun)
}

// Fault returns the live incarnation's fault point (nil when not running).
func (p *Proc) Fault() *faults.Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		return nil
	}
	return p.rtOf(p.cur).Fault
}

func (p *Proc) rtOf(inc *incarnation) *Runtime { return inc.rt }

// Service returns the live incarnation's service, or nil when none is
// running or the current incarnation has not finished Init (its state may
// still be under construction). Callers may type-assert observability
// interfaces (e.g. stats or drop reporters); the service's methods are only
// safe to call when they read atomic counters, as the runner stepping the
// incarnation owns all other state.
func (p *Proc) Service() Service {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil || !p.cur.ready.Load() {
		return nil
	}
	return p.cur.svc
}

// Start launches the first incarnation (fresh start mode). It returns once
// the incarnation's Init has completed or failed.
func (p *Proc) Start() error { return p.launch(false) }

// Restart abandons any current incarnation and launches a new one in
// restart mode, so it recovers state from storage.
func (p *Proc) Restart() error {
	p.abandon()
	return p.launch(true)
}

// Upgrade swaps the running incarnation for a successor as a planned live
// update, a drain-and-handoff: the old loop quiesces at a batch boundary,
// serializes its live state, and exits; the successor inherits the
// doorbell and every channel (peers never observe a generation change) and
// resumes from the transferred state — zero lost events, no crash-recovery
// stall anywhere. A service that does not implement Handoffer is refused
// with an error and keeps running. An upgrade never counts toward
// Crashes(): only an incarnation dying by panic does.
//
// If state serialization or the successor's Init fails, the component is
// relaunched in restart mode (the crash-recovery path, still without crash
// accounting) and Upgrade returns the original error — the component is
// never left dead.
func (p *Proc) Upgrade() (HandoffReport, error) {
	p.mu.Lock()
	inc := p.cur
	p.mu.Unlock()
	if inc == nil {
		return HandoffReport{}, fmt.Errorf("proc %s: not running", p.name)
	}
	if _, ok := inc.svc.(Handoffer); !ok {
		return HandoffReport{}, fmt.Errorf("proc %s: %T cannot hand off its state", p.name, inc.svc)
	}

	req := &handoffReq{done: make(chan handoffRes, 1)}
	select {
	case inc.handoff <- req:
	case <-inc.done:
		return HandoffReport{}, fmt.Errorf("proc %s: incarnation died before handoff", p.name)
	}
	inc.signal()
	var res handoffRes
	select {
	case res = <-req.done:
	case <-inc.done:
		// The result is sent before the incarnation's last step ends, so
		// leaving without one is a crash mid-drain: the crash path owns
		// recovery from here.
		select {
		case res = <-req.done:
		default:
			return HandoffReport{}, fmt.Errorf("proc %s: crashed during handoff", p.name)
		}
	}
	// The incarnation's last step ends right after sending; wait for that
	// so the successor adopts the engine state with a strict
	// happens-before.
	<-inc.done
	inc.rt.Fault.Release()
	p.mu.Lock()
	if p.cur == inc {
		p.cur = nil
	}
	p.mu.Unlock()
	if res.err != nil {
		if lerr := p.launch(true); lerr != nil {
			return HandoffReport{}, fmt.Errorf("proc %s: handoff: %v; restart fallback: %w", p.name, res.err, lerr)
		}
		return HandoffReport{}, fmt.Errorf("proc %s: handoff: %w (recovered via restart)", p.name, res.err)
	}

	rewireStart := time.Now()
	// The successor inherits the predecessor's doorbell, so every duplex
	// peers hold keeps waking it.
	succ, err := p.incarnate(inc.rt.Bell, res.state, false)
	if err != nil {
		if lerr := p.launch(true); lerr != nil {
			return HandoffReport{}, fmt.Errorf("%v; restart fallback: %w", err, lerr)
		}
		return HandoffReport{}, fmt.Errorf("%w (recovered via restart)", err)
	}
	rewire := time.Since(rewireStart)

	// Resume: "the engine is polling again" once a runner has stepped the
	// successor; a successor stopped before that ends the wait too, and
	// so does a second with every runner stuck in other members' steps.
	mark := time.Now()
	bound := time.NewTimer(time.Second)
	defer bound.Stop()
	select {
	case <-succ.stepped:
	case <-succ.stop:
	case <-bound.C:
	}
	return HandoffReport{
		Component: p.name,
		Drain:     res.drain,
		Transfer:  res.transfer,
		Rewire:    rewire,
		Resume:    time.Since(mark),
	}, nil
}

// completeHandoff is the incarnation's last step: quiesce
// at a batch boundary, serialize, hand the payload back.
func completeHandoff(inc *incarnation, req *handoffReq) {
	h := inc.svc.(Handoffer)
	t0 := time.Now()
	for i := 0; i < handoffDrainRounds; i++ {
		if !inc.svc.Poll(time.Now()) {
			break
		}
	}
	t1 := time.Now()
	state, err := h.HandoffState()
	req.done <- handoffRes{state: state, err: err, drain: t1.Sub(t0), transfer: time.Since(t1)}
}

// Shutdown gracefully stops the current incarnation and waits for it.
func (p *Proc) Shutdown() {
	p.mu.Lock()
	inc := p.cur
	p.cur = nil
	p.mu.Unlock()
	if inc == nil {
		return
	}
	inc.valid.Store(false)
	close(inc.stop)
	inc.signal()
	inc.rt.Fault.Release()
	inc.await()
	p.status.Store(int32(StatusStopped))
}

// abandon gives up on the current incarnation without waiting for its
// runner (it may be hung in a step); Release unwinds a parked Hang fault.
// A step hung beyond Release keeps its runner until the reincarnation
// server's sweep replaces it (Isolate), which happens before the sweep
// convicts the hang; the other runners step the successor meanwhile.
func (p *Proc) abandon() {
	p.mu.Lock()
	inc := p.cur
	p.cur = nil
	p.mu.Unlock()
	if inc == nil {
		return
	}
	inc.valid.Store(false)
	select {
	case <-inc.stop:
	default:
		close(inc.stop)
	}
	inc.signal()
	inc.rt.Fault.Release()
}

// signal tells the runner to look at the stop and handoff channels: the
// flag first, then the bell, so a runner woken by the ring finds the flag
// up.
func (inc *incarnation) signal() {
	inc.signaled.Store(true)
	inc.rt.Bell.Ring()
}

func (p *Proc) launch(restart bool) error {
	_, err := p.incarnate(channel.NewDoorbell(), nil, restart)
	return err
}

// incarnate makes the next incarnation on bell, runs its Init on the
// calling goroutine and, when that succeeds, hands it to the runners.
// handoff is the predecessor's state on a live update, nil otherwise.
func (p *Proc) incarnate(bell *channel.Doorbell, handoff any, restart bool) (*incarnation, error) {
	p.mu.Lock()
	if p.cur != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("proc %s: already running", p.name)
	}
	p.incNum++
	inc := &incarnation{
		p:       p,
		num:     p.incNum,
		svc:     p.factory(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		handoff: make(chan *handoffReq, 1),
		stepped: make(chan struct{}),
		rt: &Runtime{
			Bell:        bell,
			Fault:       faults.NewPoint(p.name, bell.Ring),
			Incarnation: p.incNum,
			Handoff:     handoff,
		},
	}
	inc.valid.Store(true)
	p.cur = inc
	p.mu.Unlock()

	if err := inc.init(restart); err != nil {
		p.mu.Lock()
		if p.cur == inc {
			p.cur = nil
		}
		p.mu.Unlock()
		close(inc.done)
		if handoff != nil {
			return nil, fmt.Errorf("proc %s: handoff init: %w", p.name, err)
		}
		return nil, fmt.Errorf("proc %s: init: %w", p.name, err)
	}
	inc.ready.Store(true)
	p.status.Store(int32(StatusRunning))
	join(inc)
	return inc, nil
}

// init runs the service's Init; a panic there is a crash of the
// incarnation and fails the launch.
func (inc *incarnation) init(restart bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic during init: %v", r)
			inc.p.reportCrash(inc, r)
		}
	}()
	return inc.svc.Init(inc.rt, restart)
}

func (p *Proc) reportCrash(inc *incarnation, r any) {
	injected := false
	if _, ok := r.(faults.Injected); ok {
		injected = true
	}
	if !inc.valid.Load() {
		// A superseded incarnation unwinding (e.g. released hang): the
		// crash was already handled when it was abandoned.
		return
	}
	p.mu.Lock()
	if p.cur == inc {
		p.cur = nil
	}
	p.mu.Unlock()
	p.crashes.Add(1)
	p.status.Store(int32(StatusCrashed))
	ev := CrashEvent{
		Name:        p.name,
		Incarnation: inc.num,
		Reason:      fmt.Sprint(r),
		Injected:    injected,
		When:        time.Now(),
	}
	if p.onCrash != nil {
		p.onCrash(ev)
	}
}
