package tcpeng

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Wheel unit tests exercise the timer index standalone: pcbs here are bare
// structs (no engine), armed/disarmed through the same helpers the engine
// uses, and fired into a recorder.

var wheelEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// wArm mirrors Engine.armTimer without an engine.
func wArm(w *timerWheel, p *pcb, kind int, at time.Time) {
	*p.timerAt(kind) = at
	w.maybeInit(at)
	w.arm(p, kind, at)
}

// wDisarm mirrors Engine.disarmTimer: clear the field and the live tick.
func wDisarm(p *pcb, kind int) {
	*p.timerAt(kind) = time.Time{}
	p.wheelAt[kind] = 0
}

type firing struct {
	p    *pcb
	kind int
	at   time.Time // wheel time (cur) when it fired
}

type fireLog struct {
	w     *timerWheel
	fired []firing
}

func (f *fireLog) fire(p *pcb, kind int) {
	f.fired = append(f.fired, firing{p: p, kind: kind, at: f.w.timeOf(f.w.cur)})
	*p.timerAt(kind) = time.Time{} // consumed; do not re-arm
}

// TestWheelFireDelays: one timer per delay across every level (and beyond
// the horizon) fires exactly once, never before its deadline, and within
// one L0 tick... for L0; coarser levels may round up to their cascade
// boundary but still must not be unboundedly late.
func TestWheelFireDelays(t *testing.T) {
	tick := time.Duration(1) << wheelTickShift
	delays := []time.Duration{
		1 * time.Nanosecond, // sub-tick: rounds up to one tick
		100 * time.Microsecond,
		delAckDelay,
		time.Millisecond,
		50 * time.Millisecond, // L0 edge
		100 * time.Millisecond,
		timeWait,
		time.Second, // L1
		maxRTO,
		20 * time.Second, // L2
		30 * time.Minute, // deep L2
		2 * time.Hour,    // beyond the horizon: far-edge parking
		49 * time.Hour,   // way beyond
	}
	for _, d := range delays {
		var w timerWheel
		log := fireLog{w: &w}
		now := wheelEpoch
		w.maybeInit(now)
		p := &pcb{}
		deadline := now.Add(d)
		wArm(&w, p, timerRTO, deadline)

		// Advance in coarse steps to just before the deadline tick: no fire.
		pre := deadline.Add(-tick)
		if pre.After(now) {
			w.advance(pre, log.fire)
			if len(log.fired) != 0 {
				t.Fatalf("delay %v: fired %d timers before deadline", d, len(log.fired))
			}
		}
		// One more second past the deadline: must have fired exactly once.
		w.advance(deadline.Add(time.Second), log.fire)
		if len(log.fired) != 1 {
			t.Fatalf("delay %v: fired %d times, want 1", d, len(log.fired))
		}
		if log.fired[0].at.Before(deadline) {
			t.Fatalf("delay %v: fired at %v, before deadline %v", d, log.fired[0].at, deadline)
		}
		if w.live != 0 {
			t.Fatalf("delay %v: %d live entries after fire", d, w.live)
		}
	}
}

// TestWheelDisarm: a disarmed timer never fires, and its stale entry is
// reaped (live returns to zero) once its slot passes.
func TestWheelDisarm(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, time.Second, 20 * time.Second} {
		var w timerWheel
		log := fireLog{w: &w}
		now := wheelEpoch
		w.maybeInit(now)
		p := &pcb{}
		wArm(&w, p, timerDelAck, now.Add(d))
		wDisarm(p, timerDelAck)
		w.advance(now.Add(d+time.Minute), log.fire)
		if len(log.fired) != 0 {
			t.Fatalf("delay %v: disarmed timer fired", d)
		}
		if w.live != 0 {
			t.Fatalf("delay %v: stale entry not reaped (live=%d)", d, w.live)
		}
	}
}

// TestWheelRearmLater: pushing a deadline out (the per-ACK RTO pattern)
// must not fire at the old deadline, must fire at the new one, and must
// reuse the existing wheel entry instead of inserting a second one.
func TestWheelRearmLater(t *testing.T) {
	var w timerWheel
	log := fireLog{w: &w}
	now := wheelEpoch
	w.maybeInit(now)
	p := &pcb{}
	wArm(&w, p, timerRTO, now.Add(10*time.Millisecond))
	if w.live != 1 {
		t.Fatalf("live=%d after first arm", w.live)
	}
	// Push it out 50 times — the deferral optimization must keep ONE entry.
	for i := 1; i <= 50; i++ {
		wArm(&w, p, timerRTO, now.Add(10*time.Millisecond+time.Duration(i)*time.Millisecond))
	}
	if w.live != 1 {
		t.Fatalf("live=%d after re-arms, want 1 (entry flood)", w.live)
	}
	deadline := now.Add(60 * time.Millisecond)
	w.advance(now.Add(30*time.Millisecond), log.fire)
	if len(log.fired) != 0 {
		t.Fatal("fired at a superseded deadline")
	}
	w.advance(now.Add(200*time.Millisecond), log.fire)
	if len(log.fired) != 1 || log.fired[0].at.Before(deadline) {
		t.Fatalf("fired %d times (first at %v), want once at/after %v",
			len(log.fired), log.fired[0].at, deadline)
	}
}

// TestWheelRearmEarlier: pulling a deadline in fires at the earlier time.
func TestWheelRearmEarlier(t *testing.T) {
	var w timerWheel
	log := fireLog{w: &w}
	now := wheelEpoch
	w.maybeInit(now)
	p := &pcb{}
	wArm(&w, p, timerRTO, now.Add(2*time.Second))
	// Earlier deadline: disarm + arm, as the engine's field rewrite does.
	wDisarm(p, timerRTO)
	wArm(&w, p, timerRTO, now.Add(5*time.Millisecond))
	w.advance(now.Add(50*time.Millisecond), log.fire)
	if len(log.fired) != 1 {
		t.Fatalf("fired %d times, want 1 at the pulled-in deadline", len(log.fired))
	}
	w.advance(now.Add(3*time.Second), log.fire)
	if len(log.fired) != 1 {
		t.Fatalf("stale original deadline fired too (total %d)", len(log.fired))
	}
}

// TestWheelRearmSameTick: a disarm and a re-arm to the same deadline leave
// two entries at one tick, both matching wheelAt; the first to come up
// clears it, so the timer fires once and the other entry is reaped.
func TestWheelRearmSameTick(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, time.Second, 20 * time.Second} {
		var w timerWheel
		log := fireLog{w: &w}
		now := wheelEpoch
		w.maybeInit(now)
		p := &pcb{}
		wArm(&w, p, timerRTO, now.Add(d))
		wDisarm(p, timerRTO)
		wArm(&w, p, timerRTO, now.Add(d))
		if w.live != 2 {
			t.Fatalf("delay %v: live=%d, want both entries indexed", d, w.live)
		}
		w.advance(now.Add(d+time.Minute), log.fire)
		if len(log.fired) != 1 || w.live != 0 {
			t.Fatalf("delay %v: fired %d times, %d entries left; want once, none", d, len(log.fired), w.live)
		}
	}
}

// TestWheelIdleAdvanceIsFree: with no entries, advancing over hours is a
// single jump — and never calls fire.
func TestWheelIdleAdvanceIsFree(t *testing.T) {
	var w timerWheel
	now := wheelEpoch
	w.maybeInit(now)
	target := now.Add(5 * time.Hour)
	w.advance(target, func(*pcb, int) { t.Fatal("fire on empty wheel") })
	if w.cur != w.tickFloor(target) {
		t.Fatalf("cur=%d, want %d (single jump)", w.cur, w.tickFloor(target))
	}
	// With only far-future entries, L0 stays empty and advance jumps by
	// cascade boundaries, not single ticks; this completing instantly (not
	// ~14M iterations for an hour of 262µs ticks) is the point.
	p := &pcb{}
	wArm(&w, p, timerTimeWait, target.Add(50*time.Hour))
	w.advance(target.Add(time.Hour), func(*pcb, int) { t.Fatal("far-future timer fired") })
}

// TestWheelNextDeadline: exact for L0, a conservative lower bound for
// higher levels, zero when empty.
func TestWheelNextDeadline(t *testing.T) {
	var w timerWheel
	now := wheelEpoch
	w.maybeInit(now)
	if !w.nextDeadline().IsZero() {
		t.Fatal("empty wheel reported a deadline")
	}
	p := &pcb{}
	d0 := now.Add(10 * time.Millisecond)
	wArm(&w, p, timerRTO, d0)
	nd := w.nextDeadline()
	if nd.Before(now) || nd.Before(d0) {
		t.Fatalf("L0 nextDeadline %v, want >= %v", nd, d0)
	}
	if nd.Sub(d0) > time.Duration(2)<<wheelTickShift {
		t.Fatalf("L0 nextDeadline %v too late for %v", nd, d0)
	}
	wDisarm(p, timerRTO)

	q := &pcb{}
	d1 := now.Add(5 * time.Second)
	wArm(&w, q, timerRTO, d1)
	nd = w.nextDeadline()
	if nd.After(d1) {
		t.Fatalf("L1 nextDeadline %v is past the real deadline %v (would oversleep)", nd, d1)
	}
	if !nd.After(now) {
		t.Fatalf("L1 nextDeadline %v not in the future (busy loop)", nd)
	}
}

// TestWheelRandomVsReference is the property test: a randomized schedule of
// arms, disarms, re-arms and advances, checked after every advance against
// a naive armed-deadline-map reference. Exactly the due timers fire, each
// at or after its deadline, and the fire order is monotone in wheel time.
func TestWheelRandomVsReference(t *testing.T) {
	type key struct {
		p    *pcb
		kind int
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w timerWheel
		log := fireLog{w: &w}
		now := wheelEpoch
		w.maybeInit(now)

		pcbs := make([]*pcb, 64)
		for i := range pcbs {
			pcbs[i] = &pcb{}
		}
		armed := make(map[key]time.Time) // reference model
		taken := 0                       // log.fired prefix already checked

		randomDelay := func() time.Duration {
			switch rng.Intn(4) {
			case 0: // L0: sub-67ms
				return time.Duration(rng.Int63n(int64(60 * time.Millisecond)))
			case 1: // L1: up to ~17s
				return time.Duration(rng.Int63n(int64(15 * time.Second)))
			case 2: // L2
				return time.Duration(rng.Int63n(int64(30 * time.Minute)))
			default: // beyond horizon
				return 80*time.Minute + time.Duration(rng.Int63n(int64(time.Hour)))
			}
		}

		// checkAdvance moves the wheel to now and compares the newly fired
		// set against what the reference says is due: every armed timer
		// whose deadline tick is at or before the wheel's target tick.
		checkAdvance := func(step int) {
			w.advance(now, log.fire)
			due := make(map[key]time.Time)
			for k, d := range armed {
				if w.tickCeil(d) <= w.tickFloor(now) {
					due[k] = d
					delete(armed, k)
				}
			}
			got := log.fired[taken:]
			taken = len(log.fired)
			for _, f := range got {
				k := key{f.p, int(f.kind)}
				d, ok := due[k]
				if !ok {
					t.Fatalf("seed %d step %d: fired a timer the reference says is not due", seed, step)
				}
				if f.at.Before(d) {
					t.Fatalf("seed %d step %d: fired at %v before deadline %v", seed, step, f.at, d)
				}
				delete(due, k)
			}
			if len(due) != 0 {
				t.Fatalf("seed %d step %d: %d due timers did not fire", seed, step, len(due))
			}
		}

		for step := 0; step < 400; step++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // arm or re-arm a random timer
				p := pcbs[rng.Intn(len(pcbs))]
				kind := rng.Intn(numTimers)
				at := now.Add(randomDelay())
				k := key{p, kind}
				if old, isArmed := armed[k]; isArmed && at.Before(old) {
					// Engine pulls a deadline in via disarm+arm.
					wDisarm(p, kind)
				}
				wArm(&w, p, kind, at)
				armed[k] = at
			case 3: // disarm
				p := pcbs[rng.Intn(len(pcbs))]
				kind := rng.Intn(numTimers)
				wDisarm(p, kind)
				delete(armed, key{p, kind})
			case 4: // advance
				now = now.Add(time.Duration(rng.Int63n(int64(3 * time.Second))))
				checkAdvance(step)
			}
		}
		// Final advance far enough to drain everything, including
		// beyond-horizon parks (which lazily re-index on cascade).
		now = now.Add(200 * time.Hour)
		checkAdvance(-1)
		if len(armed) != 0 {
			t.Fatalf("seed %d: %d timers never fired", seed, len(armed))
		}
		if w.live != 0 {
			t.Fatalf("seed %d: %d wheel entries leaked", seed, w.live)
		}
		// Fire order is non-decreasing in wheel time across the whole run.
		if !sort.SliceIsSorted(log.fired, func(i, j int) bool {
			return log.fired[i].at.Before(log.fired[j].at)
		}) {
			t.Fatalf("seed %d: fire order not monotone in wheel time", seed)
		}
	}
}

// TestWheelFireLatenessBounded: timers that stay within the wheel horizon
// fire within one cascade granule of their deadline when the clock is
// advanced densely (every tick).
func TestWheelFireLatenessBounded(t *testing.T) {
	tick := time.Duration(1) << wheelTickShift
	cases := []struct {
		delay  time.Duration
		margin time.Duration
	}{
		{3 * time.Millisecond, 2 * tick},   // L0: exact to rounding
		{300 * time.Millisecond, 2 * tick}, // L1: re-indexes to L0 on cascade
		{90 * time.Second, 2 * tick},       // L2: two cascades down
	}
	for _, c := range cases {
		var w timerWheel
		log := fireLog{w: &w}
		now := wheelEpoch
		w.maybeInit(now)
		p := &pcb{}
		deadline := now.Add(c.delay)
		wArm(&w, p, timerRTO, deadline)
		end := deadline.Add(time.Second)
		for now.Before(end) && len(log.fired) == 0 {
			now = now.Add(tick)
			w.advance(now, log.fire)
		}
		if len(log.fired) != 1 {
			t.Fatalf("delay %v: no fire by deadline+1s", c.delay)
		}
		if late := log.fired[0].at.Sub(deadline); late < 0 || late > c.margin {
			t.Fatalf("delay %v: fired %v after deadline, margin %v", c.delay, late, c.margin)
		}
	}
}
