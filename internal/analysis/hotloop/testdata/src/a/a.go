// Package a exercises the hotloop analyzer.
package a

import (
	"fmt"
	"sync"
	"time"

	"newtos/internal/proc"
)

// Loop implements proc.Service, so Poll and everything it reaches is hot.
type Loop struct {
	mu sync.Mutex
	ch chan int
}

func (l *Loop) Init(rt *proc.Runtime, restart bool) error { return nil }

func (l *Loop) Poll(now time.Time) bool {
	_ = time.Now() // want `clock read time.Now in \(\*Loop\)\.Poll, reachable from \(\*Loop\)\.Poll`
	l.helper()
	l.recvHelper()
	l.nonBlocking()
	l.guard(1)
	return false
}

func (l *Loop) Deadline(now time.Time) time.Time { return time.Time{} }

func (l *Loop) Stop() {}

// helper is hot because Poll calls it.
func (l *Loop) helper() {
	l.mu.Lock() // want `lock acquisition sync\.Mutex\.Lock in \(\*Loop\)\.helper`
	defer l.mu.Unlock()
	_ = fmt.Sprintf("n=%d", 1) // want `string formatting fmt\.Sprintf in \(\*Loop\)\.helper`
	l.ch <- 1                  // want `blocking channel send in \(\*Loop\)\.helper`
}

func (l *Loop) recvHelper() {
	<-l.ch   // want `blocking channel receive in \(\*Loop\)\.recvHelper`
	select { // want `blocking select \(no default\) in \(\*Loop\)\.recvHelper`
	case v := <-l.ch:
		_ = v
	}
}

// nonBlocking drains with a default: allowed.
func (l *Loop) nonBlocking() {
	select {
	case v := <-l.ch:
		_ = v
	default:
	}
}

// guard formats only inside a panic argument: crash paths are not hot.
func (l *Loop) guard(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}
}

// notHot is unreachable from any Poll; the clock read is fine here.
func notHot() time.Time {
	return time.Now()
}

// Suppressed self-times its iteration with an annotated exception.
type Suppressed struct{}

func (s *Suppressed) Init(rt *proc.Runtime, restart bool) error { return nil }

func (s *Suppressed) Poll(now time.Time) bool {
	//lint:ignore hotloop this loop self-times its own iteration cost.
	t0 := time.Now()
	_ = t0
	return false
}

func (s *Suppressed) Deadline(now time.Time) time.Time { return time.Time{} }

func (s *Suppressed) Stop() {}

// Shell drives its engine through an interface, as the transport shell
// does: the implementations stay on the hot path, including methods an
// adapter only promotes from the type it embeds.
type Shell struct{ eng engine }

type engine interface {
	Step()
	Flush()
}

func (s *Shell) Init(rt *proc.Runtime, restart bool) error { return nil }

func (s *Shell) Poll(now time.Time) bool {
	s.eng.Step()
	s.eng.Flush()
	each(s.hook) // a method handed on as a callback is on the hot path too
	return false
}

func each(fn func()) { fn() }

func (s *Shell) hook() {
	_ = time.Now() // want `clock read time.Now in \(\*Shell\)\.hook, reachable from \(\*Shell\)\.Poll`
}

func (s *Shell) Deadline(now time.Time) time.Time { return time.Time{} }

func (s *Shell) Stop() {}

type core struct{}

func (*core) Flush() {
	_ = time.Now() // want `clock read time.Now in \(\*core\)\.Flush, reachable from \(\*Shell\)\.Poll`
}

// Step is not reachable: core alone does not implement engine (its Step
// takes an argument); only the adapter's Step is dispatched to.
func (*core) Step(n int) { _ = time.Now() }

type adapter struct{ *core }

func (a adapter) Step() {
	_ = time.Since(time.Time{}) // want `clock read time.Since in \(\*adapter\)\.Step, reachable from \(\*Shell\)\.Poll`
}
