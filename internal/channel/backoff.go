package channel

import (
	"runtime"
	"time"
)

// Backoff paces the spin phase of a loop that waits for work: the first
// spins yield the processor (cheap, keeps latency low when work arrives
// immediately), then successive idle spins sleep for exponentially growing
// intervals up to a small cap. Unpinned runs on few cores must not burn a
// whole timeslice per idle spin — a pure Gosched loop does exactly that
// when every other runnable goroutine is also a spinning server loop. The
// cap stays far below doorbell wakeup latency, so sleeping here never
// becomes the bottleneck; loops still Arm their doorbell and block properly
// once their spin budget runs out.
//
// Backoff only paces; what a spin does is the loop's business. A loop that
// owns a doorbell (proc's event loop) watches the bell's post count while it
// spins and polls its queues again only when the count moves or a deadline
// falls due, so an idle spin costs one atomic load plus the wait below.
type Backoff struct {
	n int
}

// Backoff tuning: yield for the first spinYields idle spins, then sleep
// starting at sleepMin, doubling per idle spin up to sleepMax.
const (
	spinYields = 32
	sleepMin   = 1 * time.Microsecond
	sleepMax   = 32 * time.Microsecond
)

// Wait blocks appropriately for the n-th consecutive idle spin.
func (b *Backoff) Wait() {
	if b.n < spinYields {
		b.n++
		runtime.Gosched()
		return
	}
	d := sleepMin << uint(b.n-spinYields)
	if d > sleepMax || d <= 0 {
		d = sleepMax
	} else {
		b.n++
	}
	time.Sleep(d)
}

// Saturated reports that the backoff has ramped to its maximum sleep: the
// streak of idle spins is long enough that further Wait calls buy nothing
// over a real blocking mechanism. Loops that own a doorbell should stop
// spinning and park on it at this point — hundreds of capped micro-sleeps
// per idle episode are a timer-interrupt storm that starves busy loops on
// small-core boxes, exactly the burn this type exists to avoid.
func (b *Backoff) Saturated() bool {
	if b.n < spinYields {
		return false
	}
	d := sleepMin << uint(b.n-spinYields)
	return d > sleepMax || d <= 0
}

// Reset clears the streak after a poll that found work.
func (b *Backoff) Reset() { b.n = 0 }
