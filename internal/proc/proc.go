// Package proc implements the server process model of the multiserver
// system: each OS component is a single-threaded, asynchronous, event-driven
// process on its own (dedicated) core.
//
// The event loop realizes the paper's design rules: it polls the server's
// channels aggressively while work keeps arriving; once a poll comes back
// empty it watches only its doorbell (the memory location MONITOR watches)
// and polls again only when a producer rings or the service's deadline
// falls due, yielding for a short while and then napping on the armed
// doorbell (MWAIT). Panics are contained to the incarnation and reported as
// crash signals to the reincarnation server; restarted incarnations are told
// they are restarting so they can recover state from the storage server.
package proc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/affinity"
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
	// successor incarnation. It runs on the loop goroutine as the
	// incarnation's final act, after the drain rounds quiesced the engine
	// at a batch boundary: the loop exits right after, and the successor's
	// Init observes the returned payload via Runtime.Handoff with a full
	// happens-before chain (handoff channel send, then goroutine start).
	HandoffState() (any, error)
}

// HandoffReport times the phases of one planned upgrade: drain (quiesce
// the old loop at a batch boundary), transfer (serialize live state onto
// the handoff channel), rewire (successor Init: re-point ports, restore
// state, re-arm timers, re-announce readiness edges), resume (until the
// new loop's first heartbeat). Live is false when the service does not
// implement Handoffer and the upgrade fell back to a planned graceful
// restart (stop, then a restart-mode launch recovering from storage).
type HandoffReport struct {
	Live                            bool
	Drain, Transfer, Rewire, Resume time.Duration
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

// The idle path: after a Poll that found nothing the loop yields
// spinYields times, then naps on its armed doorbell, napMin long at first
// and twice as long each nap after. An idle loop polls again at the latest
// maxSleep after its last Poll, so heartbeats stay fresh.
const (
	spinYields = 32
	napMin     = time.Microsecond
	maxSleep   = 500 * time.Microsecond
)

// Options tune a process.
type Options struct {
	// LoopGroup assigns the loop to a core-affine group (numbered from 1;
	// 0 means ungrouped). A grouped loop is locked to an OS thread,
	// approximating a core dedicated to the component, and that thread is
	// pinned to affinity.CPUForGroup(LoopGroup) where the platform supports
	// sched_setaffinity; elsewhere the loop stays LockOSThread-pinned
	// without a CPU mask. Distinct groups land on distinct CPUs until groups
	// outnumber CPUs, then wrap.
	LoopGroup int
}

// Proc supervises one component across incarnations.
type Proc struct {
	name    string
	factory func() Service
	opts    Options
	onCrash func(CrashEvent)

	mu      sync.Mutex
	cur     *incarnation
	incNum  int
	status  atomic.Int32
	hb      atomic.Int64 // unix nanos of last loop heartbeat
	crashes atomic.Int32
}

type incarnation struct {
	num     int
	svc     Service
	rt      *Runtime
	stop    chan struct{}
	done    chan struct{}
	handoff chan *handoffReq
	// signaled is raised after stop is closed or a handoff request is
	// queued, and before the bell rings: the loop looks at those channels
	// only when it is up.
	signaled atomic.Bool
	valid    atomic.Bool // false once abandoned/superseded
	// ready flips after Init succeeds; Service() hides the incarnation
	// until then, so observers never see a service mid-construction.
	ready atomic.Bool
}

// New creates a process. factory builds a fresh Service per incarnation;
// onCrash (may be nil) is invoked from the dying goroutine.
func New(name string, factory func() Service, opts Options, onCrash func(CrashEvent)) *Proc {
	p := &Proc{name: name, factory: factory, opts: opts, onCrash: onCrash}
	p.status.Store(int32(StatusIdle))
	return p
}

// Name returns the component name.
func (p *Proc) Name() string { return p.name }

// Status returns the current lifecycle status.
func (p *Proc) Status() Status { return Status(p.status.Load()) }

// Crashes returns how many incarnations have died.
func (p *Proc) Crashes() int { return int(p.crashes.Load()) }

// Incarnation returns the current incarnation number.
func (p *Proc) Incarnation() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.incNum
}

// Heartbeat returns the time of the last loop iteration.
func (p *Proc) Heartbeat() time.Time { return time.Unix(0, p.hb.Load()) }

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
// safe to call when they read atomic counters, as the loop goroutine owns
// all other state.
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
// update. When the service implements Handoffer, the swap is a
// drain-and-handoff: the old loop quiesces at a batch boundary, serializes
// its live state, and exits; the successor inherits the doorbell and every
// channel (peers never observe a generation change) and resumes from the
// transferred state — zero lost events, no crash-recovery stall anywhere.
// Otherwise the upgrade falls back to a planned graceful restart (stop,
// then a restart-mode launch recovering from storage), which peers handle
// with their usual reincarnation actions. Neither path counts toward
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
		start := time.Now()
		p.Shutdown()
		if err := p.launch(true); err != nil {
			return HandoffReport{}, err
		}
		return HandoffReport{Rewire: time.Since(start)}, nil
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
		// Crashed mid-drain: the crash path owns recovery from here.
		return HandoffReport{}, fmt.Errorf("proc %s: crashed during handoff", p.name)
	}
	// The old loop goroutine exits right after sending; wait for it so the
	// successor adopts the engine state with a strict happens-before.
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
	if err := p.adopt(inc, res.state); err != nil {
		if lerr := p.launch(true); lerr != nil {
			return HandoffReport{}, fmt.Errorf("%v; restart fallback: %w", err, lerr)
		}
		return HandoffReport{}, fmt.Errorf("%w (recovered via restart)", err)
	}
	rewire := time.Since(rewireStart)

	// Resume: the successor's loop stores its first heartbeat at the top of
	// its first iteration; waiting for a heartbeat past rewireStart bounds
	// "the engine is polling again". All predecessor heartbeats
	// happened-before rewireStart, so the comparison cannot confuse them.
	mark := time.Now()
	for time.Since(mark) < time.Second {
		if p.hb.Load() >= rewireStart.UnixNano() {
			break
		}
		runtime.Gosched()
	}
	return HandoffReport{
		Live:     true,
		Drain:    res.drain,
		Transfer: res.transfer,
		Rewire:   rewire,
		Resume:   time.Since(mark),
	}, nil
}

// completeHandoff runs on the incarnation's loop goroutine: quiesce at a
// batch boundary, serialize, hand the payload back, exit.
func (p *Proc) completeHandoff(inc *incarnation, req *handoffReq) {
	h := inc.svc.(Handoffer)
	t0 := time.Now()
	for i := 0; i < handoffDrainRounds; i++ {
		now := time.Now()
		p.hb.Store(now.UnixNano())
		if !inc.svc.Poll(now) {
			break
		}
	}
	t1 := time.Now()
	state, err := h.HandoffState()
	req.done <- handoffRes{state: state, err: err, drain: t1.Sub(t0), transfer: time.Since(t1)}
}

// adopt launches the successor incarnation of a live handoff: it inherits
// the predecessor's doorbell (so every duplex peers hold keeps waking it)
// and receives the serialized state via Runtime.Handoff.
func (p *Proc) adopt(prev *incarnation, state any) error {
	p.mu.Lock()
	if p.cur != nil {
		p.mu.Unlock()
		return fmt.Errorf("proc %s: already running", p.name)
	}
	p.incNum++
	inc := &incarnation{
		num:     p.incNum,
		svc:     p.factory(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		handoff: make(chan *handoffReq, 1),
		rt: &Runtime{
			Bell:        prev.rt.Bell,
			Fault:       faults.NewPoint(p.name),
			Incarnation: p.incNum,
			Handoff:     state,
		},
	}
	inc.valid.Store(true)
	p.cur = inc
	p.mu.Unlock()

	initDone := make(chan error, 1)
	go p.run(inc, false, initDone)
	if err := <-initDone; err != nil {
		p.mu.Lock()
		if p.cur == inc {
			p.cur = nil
		}
		p.mu.Unlock()
		return fmt.Errorf("proc %s: handoff init: %w", p.name, err)
	}
	return nil
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
	<-inc.done
	p.status.Store(int32(StatusStopped))
}

// abandon gives up on the current incarnation without waiting for its
// goroutine (it may be hung); Release unwinds a parked Hang fault.
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

// signal tells the loop to look at its stop and handoff channels: the flag
// first, then the bell, so a loop woken by the ring finds the flag up.
func (inc *incarnation) signal() {
	inc.signaled.Store(true)
	inc.rt.Bell.Ring()
}

func (p *Proc) launch(restart bool) error {
	p.mu.Lock()
	if p.cur != nil {
		p.mu.Unlock()
		return fmt.Errorf("proc %s: already running", p.name)
	}
	p.incNum++
	inc := &incarnation{
		num:     p.incNum,
		svc:     p.factory(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		handoff: make(chan *handoffReq, 1),
		rt: &Runtime{
			Bell:        channel.NewDoorbell(),
			Fault:       faults.NewPoint(p.name),
			Incarnation: p.incNum,
		},
	}
	inc.valid.Store(true)
	p.cur = inc
	p.mu.Unlock()

	initDone := make(chan error, 1)
	go p.run(inc, restart, initDone)
	if err := <-initDone; err != nil {
		p.mu.Lock()
		if p.cur == inc {
			p.cur = nil
		}
		p.mu.Unlock()
		return fmt.Errorf("proc %s: init: %w", p.name, err)
	}
	return nil
}

// run is one incarnation's goroutine: init, then the event loop, with
// panic containment and crash reporting.
func (p *Proc) run(inc *incarnation, restart bool, initDone chan<- error) {
	defer close(inc.done)
	if p.opts.LoopGroup != 0 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if cpu := affinity.CPUForGroup(p.opts.LoopGroup); cpu >= 0 {
			if affinity.PinThread(cpu) == nil {
				// LIFO defers: the mask is restored before the thread
				// unlocks back into the scheduler's pool.
				defer affinity.UnpinThread()
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			// If Init itself panicked, unblock the launcher too.
			select {
			case initDone <- fmt.Errorf("panic during init: %v", r):
			default:
			}
			p.reportCrash(inc, r)
		}
	}()

	if err := inc.svc.Init(inc.rt, restart); err != nil {
		initDone <- err
		return
	}
	inc.ready.Store(true)
	initDone <- nil
	p.status.Store(int32(StatusRunning))
	p.hb.Store(time.Now().UnixNano())

	bell := inc.rt.Bell
	var (
		// The idle gate: idle says the last Poll came back empty, seen is
		// the bell's post count read before it, and due is when the loop
		// polls anyway: the service's deadline, at most maxSleep away.
		idle bool
		seen uint64
		due  time.Time
		// Idle steps since the last Poll that found work: the first
		// spinYields yield, the ones after nap.
		spins int
	)
	for {
		if inc.signaled.Load() {
			select {
			case <-inc.stop:
				inc.svc.Stop()
				if inc.valid.Load() {
					p.status.Store(int32(StatusStopped))
				}
				return
			case req := <-inc.handoff:
				p.completeHandoff(inc, req)
				return
			default:
			}
		}
		now := time.Now()
		p.hb.Store(now.UnixNano())
		inc.rt.Fault.Check()
		// After an empty Poll the loop watches its doorbell, not its
		// queues: every input either rings the bell or is a deadline, so
		// until the post count moves or the deadline falls due another
		// Poll would find nothing.
		if posts := bell.Posts(); !idle || posts != seen || !now.Before(due) {
			seen = posts
			if inc.svc.Poll(now) {
				idle, spins = false, 0
				continue
			}
			idle, due = true, now.Add(maxSleep)
			if d := inc.svc.Deadline(now); !d.IsZero() && d.Before(due) {
				due = d
			}
		}
		// The paper's "more aggressive polling to avoid halting the core if
		// the gap between requests is short": yield for a while, then nap.
		if spins < spinYields {
			spins++
			runtime.Gosched()
			continue
		}
		// The nap is the loop's one blocking wait. Ring counts its post
		// before it looks at the arm, so a post that raced the Arm shows
		// in the count and sends the loop back to the gate instead.
		bell.Arm()
		if bell.Posts() != seen {
			bell.Disarm()
			continue
		}
		nap := napMin << (spins - spinYields)
		if wait := min(nap, time.Until(due)); wait > 0 {
			bell.Wait(wait)
		} else {
			bell.Disarm()
		}
		// The streak survives an empty Poll: only one that finds work
		// resets it, so a persistently idle loop settles into one nap and
		// one Poll per maxSleep instead of re-running the ramp.
		if nap < maxSleep {
			spins++
		}
	}
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
