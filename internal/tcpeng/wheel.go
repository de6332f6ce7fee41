package tcpeng

import "time"

// Timer kinds multiplexed onto the wheel. Each pcb owns one logical timer
// per kind; the pcb's deadline field (rtoAt / delAckAt / timeWaitAt) stays
// the source of truth and the wheel is only an index over it.
const (
	timerRTO = iota
	timerDelAck
	timerTimeWait
	numTimers
)

// Wheel geometry: a tick is 2^18 ns (~262 µs, well under the shortest
// timer, the 500 µs delayed ACK), 256 slots per level, three levels. L0
// spans ~67 ms exactly, L1 ~17 s, L2 ~73 min; deadlines beyond the horizon
// park at the far edge of L2 and lazily re-index themselves on arrival.
const (
	wheelTickShift = 18
	wheelSlotBits  = 8
	wheelSlots     = 1 << wheelSlotBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 3
)

// wheelEntry indexes one (pcb, kind) timer at tick. The entry is live
// exactly while tick equals the pcb's wheelAt for that kind: disarm and
// destroy zero wheelAt, and re-arming earlier indexes a new tick, so a
// stale entry is recognized and dropped when its slot comes up — O(1)
// cancellation without searching the wheel. Two live entries can share a
// tick (disarm, then re-arm to the same tick); the first to come up clears
// or moves wheelAt, and the second is dropped.
type wheelEntry struct {
	p    *pcb
	kind int32
	tick int64
	next *wheelEntry
}

// timerWheel is a hierarchical timing wheel. Arm, disarm and re-arm are
// O(1); advancing over an idle stretch costs O(slots crossed / 256) when
// level 0 is empty and nothing at all when the wheel holds no entries —
// which is what makes 100k idle connections free per Tick.
type timerWheel struct {
	start time.Time // wall-clock origin of tick 0 (set lazily)
	cur   int64     // last processed tick
	slots [wheelLevels][wheelSlots]*wheelEntry
	cnt   [wheelLevels]int
	live  int // total entries (including stale ones not yet reaped)
	free  *wheelEntry
}

func (w *timerWheel) maybeInit(now time.Time) {
	if w.start.IsZero() {
		w.start = now
	}
}

// tickFloor maps a wall-clock time to the last tick at or before it.
func (w *timerWheel) tickFloor(t time.Time) int64 {
	d := t.Sub(w.start)
	if d < 0 {
		return 0
	}
	return int64(d) >> wheelTickShift
}

// tickCeil rounds a deadline UP to a tick so a timer never fires early.
func (w *timerWheel) tickCeil(at time.Time) int64 {
	d := at.Sub(w.start)
	if d <= 0 {
		return 1
	}
	return (int64(d) + (1 << wheelTickShift) - 1) >> wheelTickShift
}

func (w *timerWheel) timeOf(t int64) time.Time {
	return w.start.Add(time.Duration(t << wheelTickShift))
}

// arm indexes p's kind timer for deadline at. The caller has already set
// the pcb's deadline field. If a live entry already fires at or before the
// new deadline it is kept: when it comes up, the entry sees the field still
// in the future and re-inserts itself — so the common "push the RTO later
// on every ACK" pattern reuses one entry instead of flooding the wheel.
func (w *timerWheel) arm(p *pcb, kind int, at time.Time) {
	w.maybeInit(at)
	t := w.tickCeil(at)
	if t <= w.cur {
		t = w.cur + 1
	}
	if wa := p.wheelAt[kind]; wa != 0 && wa <= t {
		return
	}
	p.wheelAt[kind] = t
	w.insert(w.alloc(p, kind), t)
}

func (w *timerWheel) alloc(p *pcb, kind int) *wheelEntry {
	ent := w.free
	if ent != nil {
		w.free = ent.next
	} else {
		ent = &wheelEntry{}
	}
	ent.p, ent.kind, ent.next = p, int32(kind), nil
	w.live++
	return ent
}

func (w *timerWheel) release(ent *wheelEntry) {
	w.live--
	ent.p = nil
	ent.next = w.free
	w.free = ent
}

// place picks the level and slot for absolute tick t. Levels are chosen by
// slot-index distance (not raw tick distance) so a deadline can never land
// in the slot the current rotation has already passed.
func (w *timerWheel) place(t int64) (int, int) {
	switch {
	case t-w.cur < wheelSlots:
		return 0, int(t & wheelMask)
	case (t>>wheelSlotBits)-(w.cur>>wheelSlotBits) < wheelSlots:
		return 1, int((t >> wheelSlotBits) & wheelMask)
	case (t>>(2*wheelSlotBits))-(w.cur>>(2*wheelSlotBits)) < wheelSlots:
		return 2, int((t >> (2 * wheelSlotBits)) & wheelMask)
	default:
		// Beyond the horizon: park at the far edge of L2; the entry
		// re-indexes itself from the pcb deadline when it cascades down.
		return 2, int(((w.cur >> (2 * wheelSlotBits)) + wheelMask) & wheelMask)
	}
}

func (w *timerWheel) insert(ent *wheelEntry, t int64) {
	ent.tick = t
	lvl, idx := w.place(t)
	ent.next = w.slots[lvl][idx]
	w.slots[lvl][idx] = ent
	w.cnt[lvl]++
}

// advance processes all ticks up to now, firing due timers through fire.
// fire may arm, disarm, or destroy pcbs freely: new entries always land at
// future ticks and destroyed pcbs' entries are invalidated by their zeroed
// wheelAt.
func (w *timerWheel) advance(now time.Time, fire func(*pcb, int)) {
	w.maybeInit(now)
	target := w.tickFloor(now)
	for w.cur < target {
		if w.live == 0 {
			w.cur = target
			return
		}
		if w.cnt[0] == 0 {
			// Level 0 empty: jump straight to the next cascade boundary.
			next := (w.cur | int64(wheelMask)) + 1
			if next > target {
				w.cur = target
				return
			}
			w.cur = next
		} else {
			w.cur++
		}
		c := w.cur
		if c&wheelMask == 0 {
			w.cascade(1, int((c>>wheelSlotBits)&wheelMask))
			if (c>>wheelSlotBits)&wheelMask == 0 {
				w.cascade(2, int((c>>(2*wheelSlotBits))&wheelMask))
			}
		}
		w.fireSlot(int(c&wheelMask), fire)
	}
}

// cascade re-indexes every entry of a higher-level slot one level down.
func (w *timerWheel) cascade(lvl, idx int) {
	ent := w.slots[lvl][idx]
	w.slots[lvl][idx] = nil
	for ent != nil {
		next := ent.next
		w.cnt[lvl]--
		if ent.tick != ent.p.wheelAt[ent.kind] {
			w.release(ent)
		} else {
			w.insert(ent, ent.tick)
		}
		ent = next
	}
}

// fireSlot drains one L0 slot: stale entries are reaped, deadlines that
// moved later re-index themselves, and due timers fire.
func (w *timerWheel) fireSlot(idx int, fire func(*pcb, int)) {
	ent := w.slots[0][idx]
	if ent == nil {
		return
	}
	w.slots[0][idx] = nil
	for ent != nil {
		next := ent.next
		w.cnt[0]--
		p, k := ent.p, int(ent.kind)
		if ent.tick != p.wheelAt[k] {
			w.release(ent)
			ent = next
			continue
		}
		p.wheelAt[k] = 0
		at := *p.timerAt(k)
		if at.IsZero() {
			// Disarmed since indexing: drop.
			w.release(ent)
			ent = next
			continue
		}
		if t := w.tickCeil(at); t > w.cur {
			// Deadline pushed later since indexing: re-index in place.
			p.wheelAt[k] = t
			w.insert(ent, t) // entry stays live; no release/alloc churn
			ent = next
			continue
		}
		w.release(ent)
		fire(p, k)
		ent = next
	}
}

// nextDeadline returns a conservative lower bound on the earliest pending
// timer: exact for L0 entries, the slot's base time for L1/L2 (the loop
// wakes at most once per cascade boundary early, advances, and re-parks).
// Zero means no pending timers.
func (w *timerWheel) nextDeadline() time.Time {
	if w.live == 0 {
		return time.Time{}
	}
	if w.cnt[0] > 0 {
		for i := int64(1); i <= wheelMask; i++ {
			if w.slots[0][(w.cur+i)&wheelMask] != nil {
				return w.timeOf(w.cur + i)
			}
		}
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if w.cnt[lvl] == 0 {
			continue
		}
		shift := uint(lvl * wheelSlotBits)
		base := w.cur >> shift
		for i := int64(0); i < wheelSlots; i++ {
			if w.slots[lvl][(base+i)&wheelMask] != nil {
				t := (base + i) << shift
				if t <= w.cur {
					t = w.cur + 1
				}
				return w.timeOf(t)
			}
		}
	}
	// Only stale bookkeeping left (live counts entries not yet reaped).
	return w.timeOf(w.cur + 1)
}
