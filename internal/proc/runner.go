package proc

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/channel"
)

// The idle path: after a sweep in which no Poll found work the runner
// yields spinYields times, sweeping after each yield, then naps on its
// armed doorbell until a member's ring or the earliest member deadline,
// with no deadline until a ring. Nothing else polls an idle member: an
// input that neither rings nor is a deadline waits forever.
const spinYields = 32

// stepOverrun is how long Shutdown waits for a member's last step before
// it replaces the runners stuck in other members' steps. A healthy step is
// one Poll: microseconds.
const stepOverrun = 20 * time.Millisecond

// A Runner is one of GOMAXPROCS goroutines that step the server processes.
// Every runner sweeps the same members: it claims each member that no
// other runner is stepping, takes one step of it, and yields the
// processor once per sweep. So the Go scheduler rotates the runners, the
// wire and the applications, not every server loop, and a member with
// work is stepped by whichever runner gets to it first. A member keeps
// its own fate: a panic in its step is its crash alone. A member stuck in
// a step holds only the runner stepping it, and isolate replaces that
// runner.
type Runner struct {
	index int
	// bell is what the runner naps on: the bell of its index, which the
	// runner that replaces it takes over.
	bell *channel.Doorbell
	// cur is the member the runner is stepping, nil between steps.
	cur atomic.Pointer[incarnation]

	// Owned by the runner goroutine.
	local []*incarnation // the members as of the last re-read
	gen   uint64         // runners.gen at that re-read
	// due is the earliest deadline among the members it stepped in its
	// last sweep, zero when none has one.
	due time.Time
}

// runners is the process-wide set of runners and the members they step.
var runners struct {
	mu      sync.Mutex
	members []*incarnation
	gen     atomic.Uint64 // moves whenever members changes
	// active holds the runner of each index, bells the bell of each
	// index; n is their number, fixed when the first runner starts. Every
	// member's bell relays to bells[0], and each of bells to the next.
	active []*Runner
	bells  []*channel.Doorbell
	n      int
}

// join adds inc to the members, starting the runners if none runs.
func join(inc *incarnation) {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	if runners.n == 0 {
		runners.n = runtime.GOMAXPROCS(0)
		runners.active = make([]*Runner, runners.n)
		runners.bells = make([]*channel.Doorbell, runners.n)
		for i := range runners.bells {
			runners.bells[i] = channel.NewDoorbell()
			if i > 0 {
				runners.bells[i-1].RelayTo(runners.bells[i])
			}
		}
	}
	for i, r := range runners.active {
		if r == nil {
			start(i)
		}
	}
	inc.idle = false
	inc.rt.Bell.RelayTo(runners.bells[0])
	runners.members = append(runners.members, inc)
	runners.gen.Add(1)
	inc.rt.Bell.Ring()
}

// start launches the runner of index i on that index's bell. A runner it
// replaces is stuck in a step and exits once the step returns, without
// touching the bell again, so the bell keeps one waiter. runners.mu is
// held.
func start(i int) {
	r := &Runner{index: i, bell: runners.bells[i]}
	runners.active[i] = r
	go r.run()
}

// leave takes inc off the members after its last step and tells its
// waiters.
func leave(inc *incarnation) {
	runners.mu.Lock()
	for i, m := range runners.members {
		if m == inc {
			runners.members = append(runners.members[:i], runners.members[i+1:]...)
			break
		}
	}
	runners.gen.Add(1)
	// A napping runner re-reads the members only once woken, and the
	// last member's leave is what lets it exit.
	if len(runners.bells) > 0 {
		runners.bells[0].Ring()
	}
	runners.mu.Unlock()
	close(inc.done)
}

// isolate replaces the runner stepping inc when that step has run longer
// than overrun: a fresh runner takes its index, and the stuck one exits
// once the step returns. It reports whether it replaced a runner.
// runners.mu is held.
func isolate(inc *incarnation, overrun time.Duration) bool {
	s := inc.busy.Load()
	if s <= 0 || time.Since(time.Unix(0, s)) <= overrun {
		return false
	}
	for _, r := range runners.active {
		// The CAS pins the step: if it returned meanwhile, its runner's
		// own CAS cleared the stamp and nothing is replaced.
		if r != nil && r.cur.Load() == inc && inc.busy.CompareAndSwap(s, -s) {
			start(r.index)
			return true
		}
	}
	return false
}

// refresh re-reads the members. With none left the runner gives up its
// index and reports false: it exits.
func (r *Runner) refresh() bool {
	runners.mu.Lock()
	r.gen = runners.gen.Load()
	r.local = append(r.local[:0], runners.members...)
	if len(r.local) == 0 && r.index < len(runners.active) && runners.active[r.index] == r {
		runners.active[r.index] = nil
		idle := true
		for _, o := range runners.active {
			idle = idle && o == nil
		}
		if idle {
			runners.n, runners.active, runners.bells = 0, nil, nil
		}
	}
	runners.mu.Unlock()
	return len(r.local) > 0
}

// run is the runner's goroutine: sweeps while any member has work, the
// idle path when none has, until the last member leaves or the runner is
// replaced.
func (r *Runner) run() {
	// Sweeps since the last one in which a Poll found work: the first
	// spinYields yield, the ones after nap.
	spins := 0
	for {
		if runners.gen.Load() != r.gen && !r.refresh() {
			return
		}
		seen := r.bell.Posts()
		worked, ok := r.sweep()
		if !ok {
			return
		}
		if worked {
			spins = 0
			runtime.Gosched()
			continue
		}
		// The paper's "more aggressive polling to avoid halting the core if
		// the gap between requests is short": yield for a while, then nap.
		if spins < spinYields {
			spins++
			runtime.Gosched()
			continue
		}
		// The nap is the runner's one blocking wait. A member's Ring
		// reaches this bell's post count before it looks at the arm, so a
		// ring since the sweep began either shows in the count or wakes
		// the Wait.
		r.bell.Arm()
		if r.bell.Posts() != seen || runners.gen.Load() != r.gen {
			r.bell.Disarm()
			continue
		}
		// The streak survives an empty sweep: only one that finds work
		// resets it, so a runner woken for nothing naps again at once.
		if r.due.IsZero() {
			r.bell.Wait(0)
		} else if wait := time.Until(r.due); wait > 0 {
			r.bell.Wait(wait)
		} else {
			r.bell.Disarm()
		}
	}
}

// sweep takes one step of every member no other runner is stepping. It
// reports whether a Poll found work, and ok false when the runner was
// replaced during a step.
func (r *Runner) sweep() (worked, ok bool) {
	now := time.Now()
	r.due = time.Time{}
	for _, inc := range r.local {
		// The busy stamp is the claim: a runner steps a member only after
		// moving its stamp from 0, and the member's gate state passes from
		// runner to runner with it.
		start := now.UnixNano()
		if inc.busy.Load() != 0 || !inc.busy.CompareAndSwap(0, start) {
			continue
		}
		r.cur.Store(inc)
		out := inc.step(now)
		r.cur.Store(nil)
		if !inc.begun {
			inc.begun = true
			close(inc.stepped)
		}
		if out == left {
			inc.gone = true
		}
		due := inc.due
		if !inc.busy.CompareAndSwap(start, 0) {
			// Replaced (isolate): release the member and exit. Every other
			// runner skipped it while this step held it and may be napping
			// without its deadline, so its ring brings one back to it.
			inc.busy.Store(0)
			inc.rt.Bell.Ring()
			if out == left {
				leave(inc)
			}
			return false, false
		}
		switch out {
		case left:
			leave(inc)
		case found:
			worked = true
		default:
			if !due.IsZero() && (r.due.IsZero() || due.Before(r.due)) {
				r.due = due
			}
		}
		if out != gated {
			// The clock is read again after every step that got past the
			// gate. A gated step is a few atomic loads, so a member's stamp
			// and the now its Poll sees are older than the step only by
			// the gated steps just before it.
			now = time.Now()
		}
	}
	return worked, true
}

// outcome is what one step of a member came to.
type outcome int8

const (
	gated outcome = iota // the idle gate held: no Poll
	empty                // a Poll that found nothing
	found                // a Poll that found work
	left                 // stopped, handed off or crashed: the last step
)

// step is one turn of inc on a runner: its stop or handoff signal, its
// fault point, and the idle gate in front of its Poll. A panic anywhere in
// it is the incarnation's crash alone.
func (inc *incarnation) step(now time.Time) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			inc.p.reportCrash(inc, r)
			out = left
		}
	}()
	if inc.gone {
		// Another runner's copy of the members still lists it.
		return gated
	}
	if inc.signaled.Load() {
		select {
		case <-inc.stop:
			inc.svc.Stop()
			if inc.valid.Load() {
				inc.p.status.Store(int32(StatusStopped))
			}
			return left
		case req := <-inc.handoff:
			completeHandoff(inc, req)
			return left
		default:
		}
	}
	inc.rt.Fault.Check()
	// After an empty Poll a runner watches the member's doorbell, not its
	// queues: every input either rings the bell or is a deadline, so until
	// the post count moves or the deadline falls due another Poll would
	// find nothing.
	bell := inc.rt.Bell
	posts := bell.Posts()
	if inc.idle && posts == inc.seen && (inc.due.IsZero() || now.Before(inc.due)) {
		return gated
	}
	inc.seen = posts
	inc.p.polls.Add(1)
	if inc.svc.Poll(now) {
		inc.idle = false
		return found
	}
	inc.idle, inc.due = true, inc.svc.Deadline(now)
	if !inc.due.IsZero() && !inc.due.After(now) {
		// The Poll at this now should have consumed that deadline: the
		// member is polled again at once, and again, until the clock
		// passes it.
		inc.p.pastDeadlines.Add(1)
	}
	if edges := bell.Unflushed(); len(edges) != 0 {
		inc.p.noteUnflushed(edges)
	}
	return empty
}

// noteUnflushed counts an empty Poll that left edges holding pushes no
// Flush followed.
func (p *Proc) noteUnflushed(edges []string) {
	p.mu.Lock()
	p.unflushed++
	p.unflushedEdges = slices.Clone(edges)
	p.mu.Unlock()
}

// await blocks until inc has taken its last step. Every runner may step
// inc, so a hung co-member delays it only while every runner is stuck in
// a step, as the one runner GOMAXPROCS 1 gives is; and core.Node.Stop
// stops the reincarnation server, whose sweep replaces stuck runners,
// before it shuts the members down. So each stepOverrun of waiting
// replaces the runners stuck that long itself.
func (inc *incarnation) await() {
	t := time.NewTimer(stepOverrun)
	defer t.Stop()
	for {
		select {
		case <-inc.done:
			return
		case <-t.C:
		}
		runners.mu.Lock()
		for _, m := range runners.members {
			if m != inc {
				isolate(m, stepOverrun)
			}
		}
		runners.mu.Unlock()
		t.Reset(stepOverrun)
	}
}
