// Package reinc implements the reincarnation server: the parent of all
// system servers that "receives a signal when a server crashes, or resets
// it when it stops responding to periodic heartbeats" (paper §V-D).
package reinc

import (
	"fmt"
	"sync"
	"time"

	"newtos/internal/proc"
)

// Event records one recovery action for the evaluation harness.
type Event struct {
	Name        string
	Incarnation int
	Reason      string
	Injected    bool
	Hang        bool // busy in one step past HeartbeatMiss, not a crash signal
	// Planned marks a deliberate live update (Upgrade), not crash
	// recovery: the component was swapped on purpose.
	Planned     bool
	DetectedAt  time.Time
	RecoveredAt time.Time
}

// Config tunes the monitor.
type Config struct {
	// HeartbeatInterval is how often children are checked. A child busy
	// in one step for longer than this holds the runner stepping it, and
	// the check replaces that runner (proc.Proc.Isolate).
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how long a child may stay busy in one step before
	// it is declared hung and reset.
	HeartbeatMiss time.Duration
}

func (c *Config) fill() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.HeartbeatMiss == 0 {
		c.HeartbeatMiss = 250 * time.Millisecond
	}
}

// Monitor is the reincarnation server.
type Monitor struct {
	cfg Config

	mu       sync.Mutex
	children map[string]*proc.Proc
	events   []Event
	disabled map[string]bool

	crashCh chan proc.CrashEvent
	stop    chan struct{}
	done    chan struct{}
	started bool

	// lastSweep is when sweep last ran and armed the instant since which
	// the monitor has been watching without interruption; only sweep's
	// caller (the loop goroutine) touches them.
	lastSweep, armed time.Time
}

// NewMonitor creates a reincarnation server.
func NewMonitor(cfg Config) *Monitor {
	cfg.fill()
	return &Monitor{
		cfg:      cfg,
		children: make(map[string]*proc.Proc),
		disabled: make(map[string]bool),
		crashCh:  make(chan proc.CrashEvent, 64),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// OnCrash returns the callback to install as a child's crash handler.
func (m *Monitor) OnCrash() func(proc.CrashEvent) {
	return func(ev proc.CrashEvent) {
		select {
		case m.crashCh <- ev:
		case <-m.stop:
		}
	}
}

// Adopt registers a child for heartbeat monitoring and restart.
func (m *Monitor) Adopt(p *proc.Proc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.children[p.Name()] = p
}

// Start launches the monitoring loop.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.loop()
}

// Stop terminates monitoring (children are left running).
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	close(m.stop)
	m.mu.Unlock()
	<-m.done
}

// Events returns a copy of all recovery events so far.
func (m *Monitor) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Down reports components left down because their restart failed (the
// "reboot necessary" outcome).
func (m *Monitor) Down() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.disabled))
	for name := range m.disabled {
		out = append(out, name)
	}
	return out
}

// Upgrade performs a planned live update of the named child — the
// deliberate-replacement path (paper §V: patching a component under live
// traffic), distinct from crash recovery. The swap is proc.Upgrade's
// drain-and-handoff, recorded as a Planned event; a child that cannot hand
// off its state is refused and keeps running.
func (m *Monitor) Upgrade(name string) (proc.HandoffReport, error) {
	m.mu.Lock()
	p, ok := m.children[name]
	m.mu.Unlock()
	if !ok {
		return proc.HandoffReport{}, fmt.Errorf("reinc: unknown component %q", name)
	}
	ev := Event{
		Name:        name,
		Incarnation: p.Incarnation(),
		Reason:      "planned upgrade",
		Planned:     true,
		DetectedAt:  time.Now(),
	}
	rep, err := p.Upgrade()
	if err != nil {
		return rep, err
	}
	ev.RecoveredAt = time.Now()
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
	return rep, nil
}

func (m *Monitor) loop() {
	defer close(m.done)
	tick := time.NewTicker(m.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case ev := <-m.crashCh:
			m.recover(ev.Name, ev.Reason, ev.Injected, false)
		case <-tick.C:
			m.sweep(time.Now())
		}
	}
}

// sweep detects hung children: running status and busy in one step
// (proc.Proc.BusySince) for longer than HeartbeatMiss. A child busy for
// longer than HeartbeatInterval has its runner replaced first, so a hang
// holds a runner for at most about one sweep interval past that. A
// failure detector must not believe its own lateness: a sweep that is
// itself more than HeartbeatMiss/2 overdue means the whole process was
// stalled (or the monitor was busy restarting somebody), and the children's
// steps look long for the same reason this sweep is late. Such a sweep
// convicts nobody and re-arms: every child gets a full HeartbeatMiss,
// counted from now, to show it is alive.
func (m *Monitor) sweep(now time.Time) {
	if now.Sub(m.lastSweep) > m.cfg.HeartbeatInterval+m.cfg.HeartbeatMiss/2 {
		m.armed = now
	}
	m.lastSweep = now
	m.mu.Lock()
	var hung []*proc.Proc
	for _, p := range m.children {
		if m.disabled[p.Name()] {
			continue
		}
		since := p.BusySince()
		if since.IsZero() {
			continue
		}
		if since.Before(m.armed) {
			since = m.armed
		}
		busy := now.Sub(since)
		if busy > m.cfg.HeartbeatInterval {
			p.Isolate(m.cfg.HeartbeatInterval)
		}
		if p.Status() == proc.StatusRunning && busy > m.cfg.HeartbeatMiss {
			hung = append(hung, p)
		}
	}
	m.mu.Unlock()
	for _, p := range hung {
		m.recover(p.Name(), "heartbeat missed", true, true)
	}
}

// recover restarts a child in restart mode and records the event.
func (m *Monitor) recover(name, reason string, injected, hang bool) {
	m.mu.Lock()
	p, ok := m.children[name]
	if !ok || m.disabled[name] {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()

	ev := Event{
		Name:        name,
		Incarnation: p.Incarnation(),
		Reason:      reason,
		Injected:    injected,
		Hang:        hang,
		DetectedAt:  time.Now(),
	}
	if err := p.Restart(); err != nil {
		m.mu.Lock()
		m.disabled[name] = true
		m.mu.Unlock()
		return
	}
	ev.RecoveredAt = time.Now()
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}
