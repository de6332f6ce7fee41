package trace

import (
	"fmt"
	"time"
)

// HandoffPhases records one planned live update's phase durations — the
// measurable pause of the drain-and-handoff protocol (docs/ARCHITECTURE.md
// "Zero-downtime live update"): drain (old engine quiesces at a batch
// boundary and flushes its edges), transfer (live state serialized onto
// the handoff channel), rewire (successor re-points ports and restores
// state, re-arming timers), resume (until its runner first steps the successor).
// Live is false when the component fell back to a planned graceful restart
// instead of a state-carrying handoff.
type HandoffPhases struct {
	Component string
	Live      bool
	Drain     time.Duration
	Transfer  time.Duration
	Rewire    time.Duration
	Resume    time.Duration
}

// Total is the whole pause: the window in which the engine was not polling.
func (h HandoffPhases) Total() time.Duration {
	return h.Drain + h.Transfer + h.Rewire + h.Resume
}

func (h HandoffPhases) String() string {
	mode := "live-handoff"
	if !h.Live {
		mode = "planned-restart"
	}
	return fmt.Sprintf("%s %s: drain=%v transfer=%v rewire=%v resume=%v total=%v",
		h.Component, mode, h.Drain, h.Transfer, h.Rewire, h.Resume, h.Total())
}
