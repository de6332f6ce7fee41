package tcpeng

import "time"

// Timer kinds. Each pcb owns one timer per kind. Its deadline lives in the
// pcb's own field (rtoAt / delAckAt / timeWaitAt), the one copy the heap
// orders by; p.heapPos[kind] is its place in the heap, 1-based, 0 while it
// is disarmed.
const (
	timerRTO = iota
	timerDelAck
	timerTimeWait
	numTimers
)

// timer names one armed (pcb, kind).
type timer struct {
	p    *pcb
	kind int
}

func (t timer) at() time.Time { return *t.p.timerAt(t.kind) }

// timerHeap is a binary min-heap of exactly the armed timers, earliest
// deadline on top. An idle connection arms no timer, so it costs nothing
// here; arm, move and remove are O(log armed) and allocate nothing once the
// slice has grown.
type timerHeap []timer

// set files (p, kind) after its deadline field changed: a disarmed timer
// goes in at the bottom, an armed one moves from where it is.
func (h *timerHeap) set(p *pcb, kind int) {
	i := int(p.heapPos[kind]) - 1
	if i < 0 {
		i = len(*h)
		*h = append(*h, timer{})
		h.put(i, timer{p, kind})
	}
	h.fix(i)
}

// remove takes (p, kind) out of the heap if it is armed. The deadline field
// is the caller's business.
func (h *timerHeap) remove(p *pcb, kind int) {
	i := int(p.heapPos[kind]) - 1
	if i < 0 {
		return
	}
	p.heapPos[kind] = 0
	last := len(*h) - 1
	moved := (*h)[last]
	(*h)[last] = timer{}
	*h = (*h)[:last]
	if i < last {
		h.put(i, moved)
		h.fix(i)
	}
}

// popDue removes and returns the earliest timer if its deadline is at or
// before now. Its deadline field stays set: a handler reads it (output tests
// rtoAt.IsZero()), and re-arming it inserts it afresh.
func (h *timerHeap) popDue(now time.Time) (timer, bool) {
	if len(*h) == 0 {
		return timer{}, false
	}
	t := (*h)[0]
	if t.at().After(now) {
		return timer{}, false
	}
	h.remove(t.p, t.kind)
	return t, true
}

// next returns the earliest armed deadline, zero when none is armed.
func (h timerHeap) next() time.Time {
	if len(h) == 0 {
		return time.Time{}
	}
	return h[0].at()
}

func (h timerHeap) put(i int, t timer) {
	h[i] = t
	t.p.heapPos[t.kind] = int32(i + 1)
}

func (h timerHeap) less(i, j int) bool { return h[i].at().Before(h[j].at()) }

func (h timerHeap) swap(i, j int) {
	a, b := h[i], h[j]
	h.put(i, b)
	h.put(j, a)
}

// fix restores heap order after the deadline at i changed.
func (h timerHeap) fix(i int) {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i, moved = parent, true
	}
	for !moved {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}
