package nic

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// RxRingSize is the receive ring's geometry, e1000-like. The transmit
// side has no ring of its own: the room left in the wire's queue is it.
const RxRingSize = 256

// Exported errors.
var (
	ErrRingFull = errors.New("nic: descriptor ring full")
	ErrLinkDown = errors.New("nic: link down")
)

// Offload flags in TX descriptors.
const (
	TxCsumIP = 1 << 0 // fill IPv4 header checksum
	TxCsumL4 = 1 << 1 // fill TCP/UDP checksum
	TxTSO    = 1 << 2 // split oversized TCP segment at SegSize
)

// TxDesc is one transmit descriptor: a gather list of rich pointers plus
// offload instructions. Cookie is returned in the completion so the driver
// can tell IP which request finished.
type TxDesc struct {
	Ptrs    []shm.RichPtr
	Flags   uint32
	SegSize uint16 // TSO MSS; required when TxTSO is set
	Cookie  uint64
}

// TxCompletion reports a transmitted (or dropped) descriptor.
type TxCompletion struct {
	Cookie uint64
	OK     bool
}

// RxCompletion reports a filled receive buffer.
type RxCompletion struct {
	Ptr    shm.RichPtr
	Len    int
	CsumOK bool
}

// DeviceConfig describes one simulated adapter.
type DeviceConfig struct {
	Name string
	MAC  netpkt.MAC
	// LinkUpDelay is how long the link trains after Reset — the paper's
	// Figure 4 gap ("it takes time for the link to come up again").
	LinkUpDelay time.Duration
	// Offloads the hardware supports; the driver negotiates a subset.
	CsumOffload bool
	TSOOffload  bool
}

// Stats are cumulative device counters.
type Stats struct {
	TxFrames, TxBytes    uint64
	RxFrames, RxBytes    uint64
	RxDropsNoBuf         uint64
	RxDropsLinkDown      uint64
	TxDropsLinkDown      uint64
	Resets               uint64
	TSOFramesSynthesized uint64
}

// Device simulates one network adapter. The driver side (PostTx, PostRx,
// CollectTx, CollectRx, Reset) is what the NetDrv server calls; the wire
// side is internal. A received frame and a link transition raise an
// interrupt through the callback installed with SetIRQ — in the full
// system that is kipc.Kernel.Interrupt, one trap and a ring of the
// driver's doorbell. A transmit raises none: PostTx completes the
// descriptor before it returns.
type Device struct {
	cfg   DeviceConfig
	space *shm.Space

	// txMu serializes transmitters: the wire's serialization clock and
	// loss draws are per direction, in transmit order, and a raw injector
	// (examples/pingflood) may post beside the driver.
	txMu sync.Mutex
	// one holds the frame of a descriptor that is not split, so gathering
	// it allocates no list; txMu guards it.
	one [1][]byte

	mu       sync.Mutex
	tx       *wireDir // attached by Wire
	peer     *Device  // other end of the wire (carrier propagation)
	txDone   []TxCompletion
	rxFree   []shm.RichPtr
	rxDone   []RxCompletion
	linkUpAt time.Time
	// adminDown is operator/driver-requested link disable (SetLink);
	// carrierDown mirrors the peer's administrative state — on a
	// point-to-point wire, taking one end down kills carrier on both.
	adminDown   bool
	carrierDown bool
	// txPending and rxPending count the completions in txDone and rxDone.
	// They change under mu, and CollectTx/CollectRx read them without it,
	// so a collect that finds nothing takes no lock.
	txPending, rxPending atomic.Int32

	irq   atomic.Pointer[func()]
	stats struct {
		txFrames, txBytes, rxFrames, rxBytes         atomic.Uint64
		rxNoBuf, rxLinkDown, txLinkDown, resets, tso atomic.Uint64
	}
}

// NewDevice creates a device that resolves DMA pointers in space.
func NewDevice(cfg DeviceConfig, space *shm.Space) *Device {
	return &Device{cfg: cfg, space: space}
}

// Name returns the configured device name.
func (d *Device) Name() string { return d.cfg.Name }

// MAC returns the hardware address.
func (d *Device) MAC() netpkt.MAC { return d.cfg.MAC }

// SetIRQ installs the interrupt callback (must be non-blocking).
func (d *Device) SetIRQ(fn func()) { d.irq.Store(&fn) }

func (d *Device) raiseIRQ() {
	if fn := d.irq.Load(); fn != nil {
		(*fn)()
	}
}

func (d *Device) attachTx(dir *wireDir) {
	d.mu.Lock()
	d.tx = dir
	d.mu.Unlock()
}

// LinkUp reports whether the link is usable: administratively enabled,
// carrier present (the peer is administratively up), and trained.
func (d *Device) LinkUp() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.linkOKLocked(time.Now())
}

// linkOKLocked reports whether the link is usable at now. Training ends at
// linkUpAt itself: the driver's Deadline is spent at that instant, so a
// Poll run then must find the link up.
func (d *Device) linkOKLocked(now time.Time) bool {
	return !d.adminDown && !d.carrierDown && !now.Before(d.linkUpAt)
}

// SetLink administratively raises or lowers the link — the ifconfig up/down
// knob (or a yanked cable). Lowering drops carrier at the wire peer too;
// raising retrains both ends for LinkUpDelay. Link transitions raise an
// interrupt so the driver notices without polling delay.
func (d *Device) SetLink(up bool) {
	d.mu.Lock()
	changed := d.adminDown == up
	d.adminDown = !up
	if up && changed {
		d.linkUpAt = time.Now().Add(d.cfg.LinkUpDelay)
	}
	peer := d.peer
	d.mu.Unlock()
	if !changed {
		return
	}
	d.raiseIRQ()
	if peer != nil {
		peer.setCarrier(up)
	}
}

// setCarrier reflects the peer's administrative state: carrier loss on a
// point-to-point link is visible on both ends.
func (d *Device) setCarrier(up bool) {
	d.mu.Lock()
	changed := d.carrierDown == up
	d.carrierDown = !up
	if up && changed {
		d.linkUpAt = time.Now().Add(d.cfg.LinkUpDelay)
	}
	d.mu.Unlock()
	if changed {
		d.raiseIRQ()
	}
}

// setPeer wires carrier propagation (called by Wire once both ends attach).
func (d *Device) setPeer(peer *Device) {
	d.mu.Lock()
	d.peer = peer
	d.mu.Unlock()
}

// PostTx transmits one descriptor on the caller's goroutine — the
// paper's "filling descriptors and updating tail pointers", with the DMA
// engine behind the ring costing no goroutine of its own. It gathers the
// frame out of pool memory, splits a TSO burst, fills the offloaded
// checksums, puts the frames on the wire and queues the completion for
// CollectTx. It never waits: a descriptor whose frames the wire's queue
// cannot all take is refused whole with ErrRingFull, and none of them goes
// out. A descriptor the device cannot send (link down, stale pointers, an
// oversized frame without TSO) completes with OK false.
func (d *Device) PostTx(desc TxDesc) error {
	d.txMu.Lock()
	defer d.txMu.Unlock()
	d.mu.Lock()
	tx, up := d.tx, d.linkOKLocked(time.Now())
	d.mu.Unlock()
	ok := false
	if up && tx != nil {
		frames := d.gather(desc)
		if frames != nil && !tx.transmit(frames...) {
			return ErrRingFull
		}
		if ok = frames != nil; ok {
			d.stats.tso.Add(uint64(len(frames) - 1))
			d.stats.txFrames.Add(uint64(len(frames)))
			for _, f := range frames {
				d.stats.txBytes.Add(uint64(len(f)))
			}
		}
	} else {
		d.stats.txLinkDown.Add(1)
	}
	d.mu.Lock()
	d.txDone = append(d.txDone, TxCompletion{Cookie: desc.Cookie, OK: ok})
	d.txPending.Add(1)
	d.mu.Unlock()
	return nil
}

// gather builds the frames of one descriptor, checksums filled, splitting
// a TSO descriptor into MTU-sized frames; nil means the device cannot send
// it.
func (d *Device) gather(desc TxDesc) [][]byte {
	pkt, err := netpkt.Resolve(d.space, desc.Ptrs)
	if err != nil {
		// Stale pointers after an owner crash: drop, as real DMA into an
		// unmapped region would be squashed by the IOMMU.
		return nil
	}
	flags := desc.Flags
	var frames [][]byte
	if flags&TxTSO != 0 && desc.SegSize > 0 {
		// Segment straight off the scatter/gather chain: the oversized
		// burst is never linearized; each MTU frame gathers its own span.
		if frames, err = tsoSplitChain(pkt, int(desc.SegSize)); err != nil {
			return nil
		}
		if len(frames) > 1 {
			// The split filled every frame's checksums; a payload that
			// fit one MSS came back as it was and still wants them.
			flags &^= TxCsumIP | TxCsumL4
		}
	} else {
		d.one[0] = pkt.Bytes() // gather DMA
		if len(d.one[0]) > DefaultMTU+netpkt.EthHeaderLen {
			return nil // no TSO to split it: the link cannot carry it
		}
		frames = d.one[:]
	}
	if flags&(TxCsumIP|TxCsumL4) != 0 {
		for _, f := range frames {
			fillChecksums(f, flags)
		}
	}
	return frames
}

// CollectTx drains completed TX descriptors; it takes no lock when nothing
// is pending.
func (d *Device) CollectTx() []TxCompletion {
	if d.txPending.Load() == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.txDone
	d.txDone = nil
	d.txPending.Store(0)
	return out
}

// PostRx supplies an empty buffer the device may DMA a frame into.
func (d *Device) PostRx(buf shm.RichPtr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.rxFree) >= RxRingSize {
		return ErrRingFull
	}
	d.rxFree = append(d.rxFree, buf)
	return nil
}

// CollectRx drains received frames; like CollectTx, it takes no lock when
// nothing is pending. A frame completed after the pending count was read
// raises its interrupt after it is counted, so the driver collects it on
// the poll that interrupt causes.
func (d *Device) CollectRx() []RxCompletion {
	if d.rxPending.Load() == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.rxDone
	d.rxDone = nil
	d.rxPending.Store(0)
	return out
}

// Reset models a full device reset: every posted descriptor — including the
// device's shadow copies — is dropped, and the link retrains for
// LinkUpDelay. The paper: "we must reset the network cards since the Intel
// gigabit adapters do not have a knob to invalidate its shadow copies of
// the RX and TX descriptors."
func (d *Device) Reset() {
	d.mu.Lock()
	d.txDone = nil
	d.rxFree = nil
	d.rxDone = nil
	d.txPending.Store(0)
	d.rxPending.Store(0)
	d.linkUpAt = time.Now().Add(d.cfg.LinkUpDelay)
	d.mu.Unlock()
	d.stats.resets.Add(1)
}

// LinkUpAt returns the instant the link finishes training after the last
// Reset or the last time either end raised it. Training completing raises
// no interrupt, so a driver that waits for it treats it as a deadline.
func (d *Device) LinkUpAt() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.linkUpAt
}

// Close does nothing: the device runs no goroutine of its own. It stays
// because the frozen benchmark module (bench/layers/nic.go) calls it.
func (d *Device) Close() {}

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats {
	return Stats{
		TxFrames: d.stats.txFrames.Load(), TxBytes: d.stats.txBytes.Load(),
		RxFrames: d.stats.rxFrames.Load(), RxBytes: d.stats.rxBytes.Load(),
		RxDropsNoBuf: d.stats.rxNoBuf.Load(), RxDropsLinkDown: d.stats.rxLinkDown.Load(),
		TxDropsLinkDown: d.stats.txLinkDown.Load(), Resets: d.stats.resets.Load(),
		TSOFramesSynthesized: d.stats.tso.Load(),
	}
}

// receiveFrame is called by the wire when a frame arrives: the device DMAs
// it into the next posted RX buffer, verifies checksums (RX offload), and
// raises an interrupt.
func (d *Device) receiveFrame(frame []byte) {
	d.mu.Lock()
	if !d.linkOKLocked(time.Now()) {
		d.mu.Unlock()
		d.stats.rxLinkDown.Add(1)
		return
	}
	if len(d.rxFree) == 0 {
		d.mu.Unlock()
		d.stats.rxNoBuf.Add(1)
		return
	}
	buf := d.rxFree[0]
	d.rxFree = d.rxFree[1:]
	d.mu.Unlock()

	view, err := d.space.View(buf)
	if err != nil || len(view) < len(frame) {
		// Stale buffer (pool owner crashed) or too small: drop.
		d.stats.rxNoBuf.Add(1)
		return
	}
	// We "own" this buffer by protocol: the pool owner supplied it for DMA.
	copy(view, frame)
	csumOK := true
	if d.cfg.CsumOffload {
		csumOK = verifyChecksums(frame)
	}
	d.mu.Lock()
	d.rxDone = append(d.rxDone, RxCompletion{Ptr: buf.Slice(0, uint32(len(frame))), Len: len(frame), CsumOK: csumOK})
	d.rxPending.Add(1)
	d.mu.Unlock()
	d.stats.rxFrames.Add(1)
	d.stats.rxBytes.Add(uint64(len(frame)))
	d.raiseIRQ()
}
