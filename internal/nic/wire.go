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
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMTU is the MTU of every link: standard Ethernet, as in all paper
// configurations.
const DefaultMTU = 1500

// wireQueueFrames bounds the frames in flight per direction. The room left
// in the queue is the sending device's TX ring: a descriptor whose frames do
// not all fit is refused (ErrRingFull), and the driver fails it back to IP.
const wireQueueFrames = 256

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
	dirs [2]*wireDir
	wg   sync.WaitGroup
}

// wireDir is one direction of the link: a queue of frames in transmit
// order, each stamped with the instant it is due at the far end. Both of the
// link's delays are deterministic, so the instant is computed once, when the
// frame is handed over, and a single goroutine (deliverLoop) waits for it.
type wireDir struct {
	cfg   WireConfig
	queue chan timedFrame
	stop  chan struct{}
	mu    sync.Mutex
	dst   *Device

	// busyUntil is the instant the link finishes serializing everything
	// transmitted so far. It and rng are touched only by transmit, that is
	// by the attached device's PostTx under its txMu.
	busyUntil time.Time
	rng       *rand.Rand

	sent, lost atomic.Uint64
}

type timedFrame struct {
	due time.Time
	f   []byte
}

// NewWire creates an unattached wire; connect devices with AttachA/AttachB.
func NewWire(cfg WireConfig) *Wire {
	w := &Wire{}
	for i := range w.dirs {
		w.dirs[i] = &wireDir{
			cfg:   cfg,
			queue: make(chan timedFrame, wireQueueFrames),
			stop:  make(chan struct{}),
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i))),
		}
	}
	return w
}

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
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		d.deliverLoop()
	}()
}

// Close stops both directions and waits for their delivery goroutines;
// frames still in flight are dropped.
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
	return w.dirs[0].sent.Load(), w.dirs[0].lost.Load(), w.dirs[1].sent.Load(), w.dirs[1].lost.Load()
}

// transmit puts a descriptor's frames on the link, all of them or none: it
// never blocks, and reports false, sending nothing, when the queue has not
// room for every frame. Each frame sent is charged its serialization time,
// has its loss drawn (one draw per frame, in transmit order, so a seed
// fixes which frames are lost) and is queued for delivery at the end of
// its serialization plus the propagation latency. Its one caller at a time
// is the attached device, so the room it finds stays free until it fills
// it.
func (d *wireDir) transmit(frames ...[]byte) bool {
	if cap(d.queue)-len(d.queue) < len(frames) {
		return false
	}
	for _, frame := range frames {
		if now := time.Now(); d.busyUntil.Before(now) {
			d.busyUntil = now
		}
		if d.cfg.BitsPerSec > 0 {
			d.busyUntil = d.busyUntil.Add(time.Duration(float64(len(frame)*8) / d.cfg.BitsPerSec * float64(time.Second)))
		}
		if d.cfg.LossProb > 0 && d.rng.Float64() < d.cfg.LossProb {
			d.lost.Add(1)
			continue
		}
		d.sent.Add(1)
		d.queue <- timedFrame{due: d.busyUntil.Add(d.cfg.Latency), f: frame}
	}
	return true
}

// deliverLoop hands each frame to the destination device at its due
// instant, strictly in transmit order (per-frame timers would race and
// reorder segments).
func (d *wireDir) deliverLoop() {
	for {
		select {
		case <-d.stop:
			return
		case tf := <-d.queue:
			// Waits below timer granularity poll the clock: at gigabit
			// rates a full frame is due ≈12µs after the one before it, and a
			// Go timer can fire a millisecond late, which would add RTT
			// bubbles a real link does not have. The poll yields between
			// reads because the stack's loops share these processors: a
			// bare spin holds one of them for the whole wait, per direction.
			if wait := time.Until(tf.due); wait > 500*time.Microsecond {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-d.stop:
					t.Stop()
					return
				}
			}
			for time.Now().Before(tf.due) {
				runtime.Gosched()
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
