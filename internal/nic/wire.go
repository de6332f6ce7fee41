// Package nic simulates the network hardware under the stack: an
// e1000-class device (descriptor rings, gather DMA out of shared pools,
// checksum and TCP-segmentation offload, interrupts, reset) and the
// full-duplex wire between two devices (bandwidth, latency, loss, MTU).
//
// The paper evaluates on Intel PRO/1000 gigabit adapters; this package is
// the substitution documented in docs/ARCHITECTURE.md "Substitutions and
// non-goals". It deliberately reproduces the
// awkward corner the paper hit: the device has no knob to invalidate its
// shadow descriptor state, so recovering a crashed IP server (which owns
// the RX pool) requires a full device Reset, with the link staying down
// while it retrains — the visible gap in Figure 4.
package nic

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// DefaultMTU is the standard Ethernet MTU used in all paper configurations.
const DefaultMTU = 1500

// WireConfig describes one emulated link.
type WireConfig struct {
	// BitsPerSec caps throughput per direction (0 = uncapped).
	// 1e9 models the paper's gigabit links.
	BitsPerSec float64
	// Latency is added to every frame's delivery.
	Latency time.Duration
	// LossProb drops frames at random with this probability.
	LossProb float64
	// Seed seeds the loss process (reproducible experiments).
	Seed int64
	// MTU is the maximum payload the link carries (default 1500).
	MTU int
	// QueueFrames bounds in-flight frames per direction (default 256).
	QueueFrames int
}

func (c *WireConfig) fill() {
	if c.MTU == 0 {
		c.MTU = DefaultMTU
	}
	if c.QueueFrames == 0 {
		c.QueueFrames = 256
	}
}

// Gigabit returns the paper's standard link: 1 Gbps, 50µs latency, no loss.
func Gigabit() WireConfig {
	return WireConfig{BitsPerSec: 1e9, Latency: 50 * time.Microsecond}
}

// TenGigabit returns the 10 GbE link used for the Linux comparison row.
func TenGigabit() WireConfig {
	return WireConfig{BitsPerSec: 1e10, Latency: 50 * time.Microsecond}
}

// Wire is a full-duplex point-to-point link between two Devices.
type Wire struct {
	cfg  WireConfig
	dirs [2]*wireDir
	wg   sync.WaitGroup
}

type wireDir struct {
	cfg    WireConfig
	frames chan []byte
	// delayed carries frames through the propagation-latency stage; a
	// dedicated goroutine delivers them strictly in order (per-frame
	// timers would race and reorder segments).
	delayed chan timedFrame
	stop    chan struct{}
	mu      sync.Mutex
	dst     *Device
	rng     *rand.Rand
	sent    uint64
	lost    uint64
}

type timedFrame struct {
	due time.Time
	f   []byte
}

// NewWire creates an unattached wire; connect devices with AttachA/AttachB.
func NewWire(cfg WireConfig) *Wire {
	cfg.fill()
	w := &Wire{cfg: cfg}
	for i := range w.dirs {
		w.dirs[i] = &wireDir{
			cfg:     cfg,
			frames:  make(chan []byte, cfg.QueueFrames),
			delayed: make(chan timedFrame, cfg.QueueFrames*4),
			stop:    make(chan struct{}),
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i))),
		}
	}
	return w
}

// MTU returns the link MTU.
func (w *Wire) MTU() int { return w.cfg.MTU }

// AttachA connects dev as the A side (transmits on direction 0).
func (w *Wire) AttachA(dev *Device) { w.attach(dev, 0) }

// AttachB connects dev as the B side (transmits on direction 1).
func (w *Wire) AttachB(dev *Device) { w.attach(dev, 1) }

func (w *Wire) attach(dev *Device, dir int) {
	d := w.dirs[dir]
	rx := w.dirs[1-dir]
	rx.mu.Lock()
	rx.dst = dev
	rx.mu.Unlock()
	dev.attachTx(d)
	// Once both ends are attached, wire them as carrier peers so an
	// administrative link-down on one end is visible on the other.
	w.dirs[0].mu.Lock()
	a := w.dirs[0].dst
	w.dirs[0].mu.Unlock()
	w.dirs[1].mu.Lock()
	b := w.dirs[1].dst
	w.dirs[1].mu.Unlock()
	if a != nil && b != nil {
		a.setPeer(b)
		b.setPeer(a)
	}
	w.wg.Add(2)
	go func() {
		defer w.wg.Done()
		d.run()
	}()
	go func() {
		defer w.wg.Done()
		d.deliverLoop()
	}()
}

// Close stops both directions and waits for the pacing goroutines.
func (w *Wire) Close() {
	for _, d := range w.dirs {
		d.mu.Lock()
		select {
		case <-d.stop:
		default:
			close(d.stop)
		}
		d.mu.Unlock()
	}
	w.wg.Wait()
}

// Stats returns frames sent and lost per direction (A->B, B->A).
func (w *Wire) Stats() (sentAB, lostAB, sentBA, lostBA uint64) {
	return w.dirs[0].sent, w.dirs[0].lost, w.dirs[1].sent, w.dirs[1].lost
}

// transmit enqueues a frame for pacing; blocks when the direction's queue
// is full, which is the backpressure that fills the device TX ring and in
// turn the stack's channels.
func (d *wireDir) transmit(frame []byte) bool {
	select {
	case d.frames <- frame:
		return true
	case <-d.stop:
		return false
	}
}

// run paces frames at line rate and delivers them to the destination
// device, modelling serialization delay plus propagation latency.
//
// Per-frame serialization at gigabit rates (≈12µs per full frame) is far
// below the sleep granularity of commodity timers, so pacing is done by
// accounting: the link tracks the instant until which it is busy and only
// actually sleeps once the accumulated debt exceeds a millisecond. Average
// rate is exact; burstiness stays bounded at ~1ms of line rate.
func (d *wireDir) run() {
	var busyUntil time.Time
	for {
		select {
		case <-d.stop:
			return
		case f := <-d.frames:
			if d.cfg.BitsPerSec > 0 {
				now := time.Now()
				if busyUntil.Before(now) {
					busyUntil = now
				}
				ser := time.Duration(float64(len(f)*8) / d.cfg.BitsPerSec * float64(time.Second))
				busyUntil = busyUntil.Add(ser)
				// Pace by spinning to the exact serialization instant:
				// sleeping quantizes to OS timer granularity (~100µs),
				// which would add artificial RTT bubbles that a real link
				// does not have. Long debts (bursts far ahead of line
				// rate) still sleep coarsely first.
				if debt := busyUntil.Sub(now); debt > 2*time.Millisecond {
					d.sleep(debt - time.Millisecond)
				}
				for time.Now().Before(busyUntil) {
				}
			}
			if d.cfg.LossProb > 0 && d.rng.Float64() < d.cfg.LossProb {
				d.lost++
				continue
			}
			d.sent++
			if d.cfg.Latency > 0 {
				select {
				case d.delayed <- timedFrame{due: time.Now().Add(d.cfg.Latency), f: f}:
				case <-d.stop:
					return
				}
				continue
			}
			d.mu.Lock()
			dst := d.dst
			d.mu.Unlock()
			if dst != nil {
				dst.receiveFrame(f)
			}
		}
	}
}

// deliverLoop applies propagation latency while preserving frame order.
func (d *wireDir) deliverLoop() {
	for {
		select {
		case <-d.stop:
			return
		case tf := <-d.delayed:
			// Sub-timer-granularity latencies must spin: a 5µs
			// propagation delay slept through the OS timer would
			// serialize delivery at ~100µs per frame.
			if wait := time.Until(tf.due); wait > 500*time.Microsecond {
				d.sleep(wait)
			} else {
				for time.Now().Before(tf.due) {
				}
			}
			d.mu.Lock()
			dst := d.dst
			d.mu.Unlock()
			if dst != nil {
				dst.receiveFrame(tf.f)
			}
		}
	}
}

// sleep waits d (or less if stopping). Very short serialization delays are
// accumulated rather than slept to avoid timer-granularity distortion.
func (d *wireDir) sleep(dur time.Duration) {
	if dur <= 0 {
		return
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-d.stop:
	}
}

// validFrame checks frame size against the link MTU (+Ethernet header).
func (d *wireDir) validFrame(n int) error {
	if n > d.cfg.MTU+14 {
		return fmt.Errorf("nic: frame of %d exceeds MTU %d", n, d.cfg.MTU)
	}
	return nil
}
