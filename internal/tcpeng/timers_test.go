package tcpeng

import (
	"math/rand"
	"testing"
	"time"
)

// Timer tests: the heap standalone — pcbs here are bare structs, armed and
// disarmed the way the engine's helpers do, fired into a recorder — and the
// engine's Deadline and Tick against exact deadlines.

var timerEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// hArm mirrors Engine.armTimer without an engine.
func hArm(h *timerHeap, p *pcb, kind int, at time.Time) {
	*p.timerAt(kind) = at
	h.set(p, kind)
}

// hDisarm mirrors Engine.disarmTimer.
func hDisarm(h *timerHeap, p *pcb, kind int) {
	*p.timerAt(kind) = time.Time{}
	h.remove(p, kind)
}

// fireDue pops every timer due at now, as Tick does, and consumes each
// deadline the way a handler that does not re-arm leaves it.
func fireDue(h *timerHeap, now time.Time) []timer {
	var fired []timer
	for {
		t, ok := h.popDue(now)
		if !ok {
			return fired
		}
		fired = append(fired, t)
		*t.p.timerAt(t.kind) = time.Time{}
	}
}

// checkHeap: every entry's position points back to it, its deadline is set,
// and no entry is earlier than its parent.
func checkHeap(t testing.TB, h timerHeap) {
	t.Helper()
	for i, tm := range h {
		if int(tm.p.heapPos[tm.kind]) != i+1 {
			t.Fatalf("entry %d (kind %d) has heapPos %d", i, tm.kind, tm.p.heapPos[tm.kind])
		}
		if tm.at().IsZero() {
			t.Fatalf("entry %d (kind %d) is in the heap with no deadline", i, tm.kind)
		}
		if i > 0 && h.less(i, (i-1)/2) {
			t.Fatalf("entry %d is earlier than its parent", i)
		}
	}
}

// checkTimers: the engine's heap holds exactly its armed timers — one entry
// per non-zero heapPos among the live pcbs, and nothing else.
func checkTimers(t testing.TB, e *Engine) int {
	t.Helper()
	checkHeap(t, e.timers)
	armed := 0
	for _, p := range e.byID {
		for k := 0; k < numTimers; k++ {
			if p.heapPos[k] != 0 {
				armed++
			}
		}
	}
	if len(e.timers) != armed {
		t.Fatalf("heap holds %d entries for %d armed timers", len(e.timers), armed)
	}
	return armed
}

// TestDeadlineIsExact: with timers armed at 500 µs, 200 ms, 2 s and 30 min,
// Engine.Deadline is the earliest of them to the nanosecond, a Tick one
// nanosecond before it fires nothing, and a Tick at it fires that timer and
// no other.
func TestDeadlineIsExact(t *testing.T) {
	e := freshEngine(t)
	now := timerEpoch
	e.Tick(now)
	delays := []time.Duration{30 * time.Minute, delAckDelay, 2 * time.Second, timeWait}
	pcbs := make(map[time.Duration]*pcb)
	for i, d := range delays {
		p := &pcb{id: uint32(100 + i), state: StateTimeWait}
		e.byID[p.id] = p
		e.armTimer(p, timerTimeWait, now.Add(d))
		pcbs[d] = p
	}
	for _, d := range []time.Duration{delAckDelay, timeWait, 2 * time.Second, 30 * time.Minute} {
		due := now.Add(d)
		if got := e.Deadline(now); !got.Equal(due) {
			t.Fatalf("Deadline = now+%v, want now+%v", got.Sub(now), d)
		}
		e.Tick(due.Add(-time.Nanosecond))
		if _, ok := e.SocketState(pcbs[d].id); !ok {
			t.Fatalf("the %v timer fired a nanosecond early", d)
		}
		left := e.NumSockets()
		e.Tick(due)
		if _, ok := e.SocketState(pcbs[d].id); ok || e.NumSockets() != left-1 {
			t.Fatalf("Tick at the %v deadline: fired %d timers, want that one", d, left-e.NumSockets())
		}
	}
	if !e.Deadline(now).IsZero() {
		t.Fatal("Deadline non-zero with nothing armed")
	}
}

// TestTimerRTOFireRearmsTheRTO: after a retransmission timeout the timer
// behind it is the RTO again, not a probe timeout. Tick leaves rtoAt set
// while rtoFire runs, so the output that rtoFire calls does not find the
// timer disarmed and arm a probe of its own.
func TestTimerRTOFireRearmsTheRTO(t *testing.T) {
	w := newOneWay(t, 9312, nil)
	warm := pattern(3000) // an RTT estimate, so output would arm a probe
	w.sendBytes(w.a, w.aBufs, w.csock, warm)
	w.recvBytes(w.b, w.child, len(warm))
	w.fate = func(dir string, _ int, _ []byte) (int, int) {
		if dir == "a->b" {
			return 0, 0
		}
		return 1, 0
	}
	w.sendBytes(w.a, w.aBufs, w.csock, pattern(3*MSS))
	for i := 0; i < 10_000 && w.a.Stats().RTOs == 0; i++ {
		w.pump()
	}
	if w.a.Stats().RTOs == 0 {
		t.Fatal("the flight never timed out")
	}
	if w.snd.probe != probeIdle || w.snd.rtoAt.IsZero() {
		t.Fatalf("after the timeout: probe state %d, rtoAt %v; want the RTO armed alone", w.snd.probe, w.snd.rtoAt)
	}
}

// TestTimerFireDelays: one timer per delay, from a nanosecond to half an
// hour, fires exactly once, at the first advance that reaches its deadline.
func TestTimerFireDelays(t *testing.T) {
	delays := []time.Duration{
		time.Nanosecond, 100 * time.Microsecond, delAckDelay, time.Millisecond,
		50 * time.Millisecond, timeWait, time.Second, maxRTO, 20 * time.Second, 30 * time.Minute,
	}
	for _, d := range delays {
		var h timerHeap
		p := &pcb{}
		deadline := timerEpoch.Add(d)
		hArm(&h, p, timerRTO, deadline)
		if n := len(fireDue(&h, deadline.Add(-time.Nanosecond))); n != 0 {
			t.Fatalf("delay %v: fired %d timers before the deadline", d, n)
		}
		if n := len(fireDue(&h, deadline)); n != 1 {
			t.Fatalf("delay %v: fired %d times at the deadline, want 1", d, n)
		}
		if len(h) != 0 || p.heapPos[timerRTO] != 0 {
			t.Fatalf("delay %v: %d entries left, heapPos %d", d, len(h), p.heapPos[timerRTO])
		}
	}
}

// TestTimerDisarm: a disarmed timer leaves the heap at once and never fires.
func TestTimerDisarm(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, time.Second, 20 * time.Second} {
		var h timerHeap
		p, q := &pcb{}, &pcb{}
		hArm(&h, p, timerDelAck, timerEpoch.Add(d))
		hArm(&h, q, timerDelAck, timerEpoch.Add(2*d))
		hDisarm(&h, p, timerDelAck)
		checkHeap(t, h)
		if len(h) != 1 || p.heapPos[timerDelAck] != 0 {
			t.Fatalf("delay %v: %d entries after disarm, heapPos %d", d, len(h), p.heapPos[timerDelAck])
		}
		if fired := fireDue(&h, timerEpoch.Add(time.Hour)); len(fired) != 1 || fired[0].p != q {
			t.Fatalf("delay %v: fired %d timers, want only the armed one", d, len(fired))
		}
	}
}

// TestTimerRearmLater: pushing a deadline out (the per-ACK RTO pattern)
// moves the one entry: nothing fires at the old deadline, it fires at the
// new one.
func TestTimerRearmLater(t *testing.T) {
	var h timerHeap
	p := &pcb{}
	hArm(&h, p, timerRTO, timerEpoch.Add(10*time.Millisecond))
	for i := 1; i <= 50; i++ {
		hArm(&h, p, timerRTO, timerEpoch.Add(10*time.Millisecond+time.Duration(i)*time.Millisecond))
	}
	if len(h) != 1 {
		t.Fatalf("%d entries after re-arms, want 1", len(h))
	}
	deadline := timerEpoch.Add(60 * time.Millisecond)
	if n := len(fireDue(&h, deadline.Add(-time.Nanosecond))); n != 0 {
		t.Fatal("fired at a superseded deadline")
	}
	if n := len(fireDue(&h, deadline)); n != 1 {
		t.Fatalf("fired %d times at the new deadline, want 1", n)
	}
}

// TestTimerRearmEarlier: pulling a deadline in fires at the earlier time,
// once.
func TestTimerRearmEarlier(t *testing.T) {
	var h timerHeap
	p := &pcb{}
	hArm(&h, p, timerRTO, timerEpoch.Add(2*time.Second))
	hArm(&h, p, timerRTO, timerEpoch.Add(5*time.Millisecond))
	if n := len(fireDue(&h, timerEpoch.Add(5*time.Millisecond))); n != 1 {
		t.Fatalf("fired %d times at the pulled-in deadline, want 1", n)
	}
	if n := len(fireDue(&h, timerEpoch.Add(3*time.Second))); n != 0 {
		t.Fatalf("the original deadline fired too (%d)", n)
	}
}

// TestTimerRandomVsReference is the property test: a randomized schedule of
// arms, disarms, re-arms earlier and later, and advances, checked against a
// naive map of armed deadlines. Each timer fires at the first advance at or
// after its deadline, in deadline order, and the heap holds exactly the
// armed timers after every step.
func TestTimerRandomVsReference(t *testing.T) {
	type key struct {
		p    *pcb
		kind int
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h timerHeap
		now := timerEpoch
		pcbs := make([]*pcb, 64)
		for i := range pcbs {
			pcbs[i] = &pcb{}
		}
		armed := make(map[key]time.Time) // reference model
		randomDelay := func() time.Duration {
			switch rng.Intn(4) {
			case 0:
				return time.Duration(rng.Int63n(int64(60 * time.Millisecond)))
			case 1:
				return time.Duration(rng.Int63n(int64(15 * time.Second)))
			case 2:
				return time.Duration(rng.Int63n(int64(30 * time.Minute)))
			default:
				return 80*time.Minute + time.Duration(rng.Int63n(int64(time.Hour)))
			}
		}
		advance := func(step int) {
			fired := fireDue(&h, now)
			for i, f := range fired {
				k := key{f.p, f.kind}
				d, ok := armed[k]
				if !ok || d.After(now) {
					t.Fatalf("seed %d step %d: fired a timer that is not due", seed, step)
				}
				if i > 0 && d.Before(armed[key{fired[i-1].p, fired[i-1].kind}]) {
					t.Fatalf("seed %d step %d: fired out of deadline order", seed, step)
				}
			}
			for _, f := range fired {
				delete(armed, key{f.p, f.kind})
			}
			for _, d := range armed {
				if !d.After(now) {
					t.Fatalf("seed %d step %d: a due timer did not fire", seed, step)
				}
			}
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // arm, or re-arm earlier or later
				k := key{pcbs[rng.Intn(len(pcbs))], rng.Intn(numTimers)}
				at := now.Add(randomDelay())
				hArm(&h, k.p, k.kind, at)
				armed[k] = at
			case 3:
				k := key{pcbs[rng.Intn(len(pcbs))], rng.Intn(numTimers)}
				hDisarm(&h, k.p, k.kind)
				delete(armed, k)
			case 4:
				now = now.Add(time.Duration(rng.Int63n(int64(3 * time.Second))))
				advance(step)
			}
			checkHeap(t, h)
			if len(h) != len(armed) {
				t.Fatalf("seed %d step %d: heap holds %d entries for %d armed timers", seed, step, len(h), len(armed))
			}
		}
		now = now.Add(200 * time.Hour)
		advance(-1)
		if len(armed) != 0 || len(h) != 0 {
			t.Fatalf("seed %d: %d timers never fired, %d entries left", seed, len(armed), len(h))
		}
	}
}

// TestTimerOpsAllocateNothing: on a warmed heap, arming, re-arming later and
// earlier, disarming and firing allocate nothing.
func TestTimerOpsAllocateNothing(t *testing.T) {
	var h timerHeap
	now := timerEpoch
	for i := 0; i < 64; i++ {
		hArm(&h, &pcb{}, i%numTimers, now.Add(time.Duration(i+1)*time.Second))
	}
	p := &pcb{}
	allocs := testing.AllocsPerRun(100, func() {
		hArm(&h, p, timerRTO, now.Add(30*time.Second))
		hArm(&h, p, timerRTO, now.Add(90*time.Second))
		hArm(&h, p, timerRTO, now.Add(time.Millisecond))
		hArm(&h, p, timerDelAck, now.Add(2*time.Millisecond))
		hDisarm(&h, p, timerDelAck)
		if tm, ok := h.popDue(now.Add(time.Millisecond)); !ok || tm.p != p {
			t.Fatal("the earliest timer did not fire")
		}
		*p.timerAt(timerRTO) = time.Time{}
	})
	if allocs != 0 {
		t.Fatalf("timer operations allocate %.1f times per run, want 0", allocs)
	}
	checkHeap(t, h)
}
