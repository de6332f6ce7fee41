package nic

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// buildFrame assembles eth+ipv4+tcp+payload with valid checksums unless
// fill is false.
func buildFrame(t testing.TB, payload []byte, fill bool) []byte {
	t.Helper()
	src, dst := netpkt.MustIP("10.0.0.1"), netpkt.MustIP("10.0.0.2")
	tcp := netpkt.TCPHeader{SrcPort: 1000, DstPort: 2000, Seq: 100, Ack: 1, Flags: netpkt.TCPAck | netpkt.TCPPsh, Window: 65535}
	tl := tcp.MarshalLen()
	total := netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + tl + len(payload)
	f := make([]byte, total)
	eth := netpkt.EthHeader{Dst: netpkt.MAC{2}, Src: netpkt.MAC{1}, Type: netpkt.EtherTypeIPv4}
	eth.Marshal(f)
	ip := netpkt.IPv4Header{
		TotalLen: uint16(netpkt.IPv4HeaderLen + tl + len(payload)),
		ID:       7, TTL: 64, Proto: netpkt.ProtoTCP, Src: src, Dst: dst,
	}
	ip.Marshal(f[netpkt.EthHeaderLen:], fill)
	tcpb := f[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:]
	tcp.Marshal(tcpb)
	copy(tcpb[tl:], payload)
	if fill {
		binary.BigEndian.PutUint16(tcpb[16:18],
			netpkt.TransportChecksum(src, dst, netpkt.ProtoTCP, tcpb[:tl+len(payload)]))
	}
	return f
}

func devicePair(t *testing.T, cfg WireConfig) (*Device, *Device, *shm.Space, func()) {
	t.Helper()
	space := shm.NewSpace()
	a := NewDevice(DeviceConfig{Name: "a", MAC: netpkt.MAC{1}, CsumOffload: true, TSOOffload: true}, space)
	b := NewDevice(DeviceConfig{Name: "b", MAC: netpkt.MAC{2}, CsumOffload: true, TSOOffload: true}, space)
	w := NewWire(cfg)
	w.AttachA(a)
	w.AttachB(b)
	return a, b, space, func() {
		w.Close()
		a.Close()
		b.Close()
	}
}

// postBuffers gives dev n receive buffers from a fresh pool.
func postBuffers(t *testing.T, space *shm.Space, dev *Device, n int) *shm.Pool {
	t.Helper()
	pool, err := space.NewPool("rx-"+dev.Name(), 2048, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ptr, _, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.PostRx(ptr); err != nil {
			t.Fatal(err)
		}
	}
	return pool
}

func waitRx(t *testing.T, dev *Device, want int) []RxCompletion {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var got []RxCompletion
	for time.Now().Before(deadline) {
		got = append(got, dev.CollectRx()...)
		if len(got) >= want {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("got %d RX completions, want %d", len(got), want)
	return nil
}

func waitTx(t *testing.T, dev *Device, want int) []TxCompletion {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var got []TxCompletion
	for time.Now().Before(deadline) {
		got = append(got, dev.CollectTx()...)
		if len(got) >= want {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("got %d TX completions, want %d", len(got), want)
	return nil
}

func TestTransmitReceive(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{})
	defer done()
	postBuffers(t, space, b, 4)

	txPool, _ := space.NewPool("tx", 2048, 4)
	frame := buildFrame(t, []byte("hello across the wire"), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)

	var irqs atomic.Int32
	b.SetIRQ(func() { irqs.Add(1) })

	if err := a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 42}); err != nil {
		t.Fatal(err)
	}
	comps := waitTx(t, a, 1)
	if comps[0].Cookie != 42 || !comps[0].OK {
		t.Fatalf("tx completion = %+v", comps[0])
	}
	rx := waitRx(t, b, 1)
	if rx[0].Len != len(frame) || !rx[0].CsumOK {
		t.Fatalf("rx = %+v", rx[0])
	}
	view, err := space.View(rx[0].Ptr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, frame) {
		t.Fatal("frame corrupted in transit")
	}
	if irqs.Load() == 0 {
		t.Fatal("no RX interrupt raised")
	}
}

func TestGatherDMA(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{})
	defer done()
	postBuffers(t, space, b, 2)
	txPool, _ := space.NewPool("tx", 2048, 4)
	frame := buildFrame(t, bytes.Repeat([]byte("x"), 100), true)

	// Split the frame across three chunks.
	var ptrs []shm.RichPtr
	cuts := []int{0, 14, 54, len(frame)}
	for i := 0; i < 3; i++ {
		part := frame[cuts[i]:cuts[i+1]]
		ptr, buf, _ := txPool.Alloc()
		copy(buf, part)
		ptrs = append(ptrs, ptr.Slice(0, uint32(len(part))))
	}
	if err := a.PostTx(TxDesc{Ptrs: ptrs, Cookie: 1}); err != nil {
		t.Fatal(err)
	}
	rx := waitRx(t, b, 1)
	view, _ := space.View(rx[0].Ptr)
	if !bytes.Equal(view, frame) {
		t.Fatal("gather DMA produced wrong frame")
	}
}

func TestChecksumOffloadTx(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{})
	defer done()
	postBuffers(t, space, b, 2)
	txPool, _ := space.NewPool("tx", 2048, 2)
	// Software leaves both checksums zero; hardware must fill them.
	frame := buildFrame(t, []byte("offloaded"), false)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	err := a.PostTx(TxDesc{
		Ptrs:  []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))},
		Flags: TxCsumIP | TxCsumL4, Cookie: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rx := waitRx(t, b, 1)
	if !rx[0].CsumOK {
		t.Fatal("receiver's checksum offload rejected hardware-filled checksums")
	}
}

func TestRxChecksumDetectsCorruption(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{})
	defer done()
	postBuffers(t, space, b, 2)
	txPool, _ := space.NewPool("tx", 2048, 2)
	frame := buildFrame(t, []byte("soon corrupted"), true)
	frame[len(frame)-1] ^= 0xff // corrupt payload after checksumming
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	_ = a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 1})
	rx := waitRx(t, b, 1)
	if rx[0].CsumOK {
		t.Fatal("corrupted frame passed RX checksum offload")
	}
}

func TestTSOSplit(t *testing.T) {
	payload := bytes.Repeat([]byte("segmentation offload! "), 300) // ~6.6 KB
	frame := buildFrame(t, payload, false)
	mss := 1460
	segs, err := tsoSplitChain(netpkt.Packet{Chunks: []netpkt.Chunk{{Data: frame}}}, mss)
	if err != nil {
		t.Fatal(err)
	}
	wantSegs := (len(payload) + mss - 1) / mss
	if len(segs) != wantSegs {
		t.Fatalf("segments = %d, want %d", len(segs), wantSegs)
	}
	var reassembled []byte
	var lastSeq uint32
	for i, seg := range segs {
		ip, err := netpkt.ParseIPv4(seg[netpkt.EthHeaderLen:], true)
		if err != nil {
			t.Fatalf("seg %d: %v", i, err)
		}
		tcpb := seg[netpkt.EthHeaderLen+ip.HeaderLen:]
		if !netpkt.VerifyTransportChecksum(ip.Src, ip.Dst, netpkt.ProtoTCP, tcpb) {
			t.Fatalf("seg %d: bad tcp checksum", i)
		}
		tcp, err := netpkt.ParseTCP(tcpb)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && tcp.Seq != lastSeq+uint32(mss) {
			t.Fatalf("seg %d: seq %d, want %d", i, tcp.Seq, lastSeq+uint32(mss))
		}
		lastSeq = tcp.Seq
		if i < len(segs)-1 && tcp.Flags&netpkt.TCPPsh != 0 {
			t.Fatalf("seg %d: PSH set on non-final segment", i)
		}
		if i == len(segs)-1 && tcp.Flags&netpkt.TCPPsh == 0 {
			t.Fatal("final segment lost PSH")
		}
		reassembled = append(reassembled, tcpb[tcp.DataOff:]...)
	}
	if !bytes.Equal(reassembled, payload) {
		t.Fatal("TSO split lost payload bytes")
	}
}

func TestTSOSmallPayloadPassesThrough(t *testing.T) {
	frame := buildFrame(t, []byte("tiny"), false)
	segs, err := tsoSplitChain(netpkt.Packet{Chunks: []netpkt.Chunk{{Data: frame}}}, 1460)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segs = %d, err = %v", len(segs), err)
	}
}

// TestTSOEndToEnd posts TSO descriptors whose checksums are left for the
// device. A split burst's frames carry the checksums the split computed; a
// payload that fits one MSS is not split, and the device must still fill
// its checksums.
func TestTSOEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload int
		frames  int
	}{
		{"split", 5000, 4}, // 5000/1460 -> 4 segments
		{"one MSS", 1460, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, space, done := devicePair(t, WireConfig{})
			defer done()
			postBuffers(t, space, b, 32)
			txPool, _ := space.NewPool("tx", 16384, 2)
			payload := bytes.Repeat([]byte("z"), tc.payload)
			frame := buildFrame(t, payload, false)
			ptr, buf, _ := txPool.Alloc()
			copy(buf, frame)
			err := a.PostTx(TxDesc{
				Ptrs:    []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))},
				Flags:   TxTSO | TxCsumIP | TxCsumL4,
				SegSize: 1460, Cookie: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			rx := waitRx(t, b, tc.frames)
			total := 0
			for _, c := range rx {
				if !c.CsumOK {
					t.Fatal("TSO segment failed checksum")
				}
				total += c.Len
			}
			wantTotal := tc.frames*(netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+netpkt.TCPHeaderLen) + len(payload)
			if total != wantTotal {
				t.Fatalf("received %d bytes, want %d", total, wantTotal)
			}
		})
	}
}

func TestOversizeWithoutTSOFails(t *testing.T) {
	a, _, space, done := devicePair(t, WireConfig{})
	defer done()
	txPool, _ := space.NewPool("tx", 16384, 2)
	frame := buildFrame(t, bytes.Repeat([]byte("z"), 3000), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	_ = a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 3})
	comps := waitTx(t, a, 1)
	if comps[0].OK {
		t.Fatal("oversized frame transmitted without TSO")
	}
}

func TestRxDropWithoutBuffers(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{})
	defer done()
	// No buffers posted on b.
	txPool, _ := space.NewPool("tx", 2048, 2)
	frame := buildFrame(t, []byte("dropped"), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	_ = a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 1})
	waitTx(t, a, 1)
	deadline := time.Now().Add(time.Second)
	for b.Stats().RxDropsNoBuf == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Stats().RxDropsNoBuf == 0 {
		t.Fatal("no-buffer drop not counted")
	}
}

func TestResetDropsRingAndRetrains(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{})
	defer done()
	pool := postBuffers(t, space, b, 4)
	_ = pool
	b.Reset()
	if b.Stats().Resets != 1 {
		t.Fatal("reset not counted")
	}
	// Immediately after reset (LinkUpDelay 0) the ring is empty: frames
	// arriving before new buffers are posted get dropped.
	txPool, _ := space.NewPool("tx", 2048, 2)
	frame := buildFrame(t, []byte("after reset"), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	_ = a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 1})
	deadline := time.Now().Add(time.Second)
	for b.Stats().RxDropsNoBuf == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Stats().RxDropsNoBuf == 0 {
		t.Fatal("post-reset frame was not dropped despite empty RX ring")
	}
}

func TestLinkDownDuringRetrain(t *testing.T) {
	space := shm.NewSpace()
	a := NewDevice(DeviceConfig{Name: "a", LinkUpDelay: 100 * time.Millisecond}, space)
	defer a.Close()
	w := NewWire(WireConfig{})
	defer w.Close()
	b := NewDevice(DeviceConfig{Name: "b"}, space)
	defer b.Close()
	w.AttachA(a)
	w.AttachB(b)
	a.Reset()
	if a.LinkUp() {
		t.Fatal("link up immediately after reset with LinkUpDelay")
	}
	txPool, _ := space.NewPool("tx", 2048, 2)
	frame := buildFrame(t, []byte("while down"), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	_ = a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 1})
	comps := waitTx(t, a, 1)
	if comps[0].OK {
		t.Fatal("frame transmitted while link down")
	}
	time.Sleep(120 * time.Millisecond)
	if !a.LinkUp() {
		t.Fatal("link did not come back up")
	}
}

// The link is up from its link-up instant on, not one tick after it: the
// driver's Deadline stops naming that instant once it is reached, so a Poll
// run exactly then must see the link up.
func TestLinkUpAtItsInstant(t *testing.T) {
	space := shm.NewSpace()
	a := NewDevice(DeviceConfig{Name: "a", LinkUpDelay: time.Hour}, space)
	defer a.Close()
	a.Reset()
	at := a.LinkUpAt()
	a.mu.Lock()
	before, on, after := a.linkOKLocked(at.Add(-time.Nanosecond)), a.linkOKLocked(at), a.linkOKLocked(at.Add(time.Nanosecond))
	a.mu.Unlock()
	if before || !on || !after {
		t.Fatalf("link up 1ns before / at / 1ns after the link-up instant = %v / %v / %v, want false / true / true",
			before, on, after)
	}
}

func TestSetLinkAdminDown(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{})
	defer done()
	postBuffers(t, space, b, 4)
	a.SetLink(false)
	if a.LinkUp() {
		t.Fatal("link up after SetLink(false)")
	}
	if b.LinkUp() {
		t.Fatal("carrier still up on peer after admin-down on the other end")
	}
	// Frames posted while admin-down fail, on both ends.
	txPool, _ := space.NewPool("tx", 2048, 2)
	frame := buildFrame(t, []byte("admin down"), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	_ = a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 1})
	comps := waitTx(t, a, 1)
	if comps[0].OK {
		t.Fatal("frame transmitted on admin-down link")
	}
	if a.Stats().TxDropsLinkDown == 0 {
		t.Fatal("admin-down TX not counted")
	}
	// Raising the link restores both ends (no LinkUpDelay configured).
	a.SetLink(true)
	if !a.LinkUp() || !b.LinkUp() {
		t.Fatal("link did not come back up on both ends")
	}
}

func TestSetLinkIRQAndRetrain(t *testing.T) {
	space := shm.NewSpace()
	a := NewDevice(DeviceConfig{Name: "a", LinkUpDelay: 60 * time.Millisecond}, space)
	defer a.Close()
	b := NewDevice(DeviceConfig{Name: "b", LinkUpDelay: 60 * time.Millisecond}, space)
	defer b.Close()
	w := NewWire(WireConfig{})
	defer w.Close()
	w.AttachA(a)
	w.AttachB(b)
	irqs := make(chan struct{}, 8)
	b.SetIRQ(func() {
		select {
		case irqs <- struct{}{}:
		default:
		}
	})
	a.SetLink(false)
	select {
	case <-irqs:
	case <-time.After(time.Second):
		t.Fatal("no interrupt on peer carrier loss")
	}
	a.SetLink(true)
	if a.LinkUp() || b.LinkUp() {
		t.Fatal("link up before retrain completed")
	}
	deadline := time.Now().Add(time.Second)
	for !(a.LinkUp() && b.LinkUp()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !a.LinkUp() || !b.LinkUp() {
		t.Fatal("link did not retrain on both ends")
	}
}

func TestWireLoss(t *testing.T) {
	a, b, space, done := devicePair(t, WireConfig{LossProb: 1.0, Seed: 1})
	defer done()
	postBuffers(t, space, b, 4)
	txPool, _ := space.NewPool("tx", 2048, 2)
	frame := buildFrame(t, []byte("lost"), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	_ = a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: 1})
	waitTx(t, a, 1)
	time.Sleep(50 * time.Millisecond)
	if got := len(b.CollectRx()); got != 0 {
		t.Fatalf("lossy wire delivered %d frames", got)
	}
}

// serialization is the link time the wire charges one frame of n bytes.
func serialization(n int, bitsPerSec float64) time.Duration {
	return time.Duration(float64(n*8) / bitsPerSec * float64(time.Second))
}

// TestWireBandwidthShaping holds the wire to what it promises: the far
// device has frame N no sooner than N serialization times after the first
// transmit. (TX completions say nothing of the kind: they lead deliveries
// by the wire's queue.)
func TestWireBandwidthShaping(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// No more frames than RX buffers: a stalled test must not turn into
	// frames dropped at the receiver.
	const (
		frames = RxRingSize
		bps    = 80e6
	)
	a, b, space, done := devicePair(t, WireConfig{BitsPerSec: bps})
	defer done()
	postBuffers(t, space, b, RxRingSize)
	txPool, _ := space.NewPool("tx", 2048, 1)
	frame := buildFrame(t, bytes.Repeat([]byte("b"), 1400), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	desc := TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}}
	ser := serialization(len(frame), bps)

	start := time.Now()
	deadline := start.Add(30 * time.Second)
	sent, got := 0, 0
	for got < frames {
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d frames", got, frames)
		}
		for sent < frames && a.PostTx(desc) == nil {
			sent++
		}
		a.CollectTx()
		rx := b.CollectRx()
		at := time.Since(start)
		for range rx {
			got++
			if min := time.Duration(got) * ser; at < min {
				t.Fatalf("frame %d received after %v; the link needs %v", got, at, min)
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Loose: the bound is there to catch a wire that stalls, not a loaded box.
	if ideal := frames * ser; time.Since(start) > 10*ideal+time.Second {
		t.Fatalf("%d frames took %v on a link that needs %v", frames, time.Since(start), ideal)
	}
}

// TestWireProperties sends a seeded sequence of mixed-size frames over a
// paced, delayed, lossy wire and checks the whole contract of the timed
// queue: delivery in transmit order, no frame before the link time of
// everything up to it plus the latency, and exactly the frames lost that the
// seed says — one draw per frame from rand.NewSource(Seed+direction), which
// is what keeps a lossy benchmark workload's schedule the same from one
// version of the wire to the next.
func TestWireProperties(t *testing.T) {
	const frames = RxRingSize // every frame has its RX buffer up front
	const hdr = netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + netpkt.TCPHeaderLen
	cfg := WireConfig{BitsPerSec: 200e6, Latency: 300 * time.Microsecond, LossProb: 0.1, Seed: 42}
	for dir, name := range []string{"A->B", "B->A"} {
		t.Run(name, func(t *testing.T) {
			space := shm.NewSpace()
			tx := NewDevice(DeviceConfig{Name: "tx", CsumOffload: true}, space)
			defer tx.Close()
			rx := NewDevice(DeviceConfig{Name: "rx", CsumOffload: true}, space)
			defer rx.Close()
			w := NewWire(cfg)
			defer w.Close()
			if dir == 0 {
				w.AttachA(tx)
				w.AttachB(rx)
			} else {
				w.AttachA(rx)
				w.AttachB(tx)
			}
			postBuffers(t, space, rx, RxRingSize)

			// The schedule, computed the way the wire promises to.
			sizes := rand.New(rand.NewSource(7))
			loss := rand.New(rand.NewSource(cfg.Seed + int64(dir)))
			txPool, _ := space.NewPool("tx", 2048, frames)
			descs := make([]TxDesc, frames)
			earliest := make([]time.Duration, frames) // since the first transmit
			var survivors []int
			var link time.Duration
			for i := range descs {
				payload := make([]byte, 4+sizes.Intn(1400))
				binary.BigEndian.PutUint32(payload, uint32(i))
				frame := buildFrame(t, payload, true)
				ptr, buf, _ := txPool.Alloc()
				copy(buf, frame)
				descs[i] = TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}}
				link += serialization(len(frame), cfg.BitsPerSec)
				earliest[i] = link + cfg.Latency
				if loss.Float64() >= cfg.LossProb {
					survivors = append(survivors, i)
				}
			}

			start := time.Now()
			deadline := start.Add(20 * time.Second)
			posted, completed := 0, 0
			var got []int
			for completed < frames || len(got) < len(survivors) {
				if time.Now().After(deadline) {
					t.Fatalf("%d/%d transmitted, %d/%d received", completed, frames, len(got), len(survivors))
				}
				for posted < frames && tx.PostTx(descs[posted]) == nil {
					posted++
				}
				completed += len(tx.CollectTx())
				comps := rx.CollectRx()
				at := time.Since(start)
				for _, c := range comps {
					view, err := space.View(c.Ptr)
					if err != nil || !c.CsumOK || len(view) < hdr+4 {
						t.Fatalf("rx %d: view %v, len %d, csum ok %v", len(got), err, len(view), c.CsumOK)
					}
					i := int(binary.BigEndian.Uint32(view[hdr:]))
					if i < frames && at < earliest[i] {
						t.Fatalf("frame %d received after %v, before its link time and latency %v", i, at, earliest[i])
					}
					got = append(got, i)
				}
				time.Sleep(50 * time.Microsecond)
			}
			if !slices.Equal(got, survivors) {
				t.Fatalf("delivered frames differ from the seed's schedule\n got %v\nwant %v", got, survivors)
			}
			// Every frame is transmitted and every survivor is in hand, so
			// the counters say whether the wire holds anything more.
			sentAB, lostAB, sentBA, lostBA := w.Stats()
			stats := [2][2]uint64{{sentAB, lostAB}, {sentBA, lostBA}}
			var want [2][2]uint64
			want[dir] = [2]uint64{uint64(len(survivors)), uint64(frames - len(survivors))}
			if stats != want {
				t.Fatalf("wire stats (sent, lost) per direction = %v, want %v", stats, want)
			}
		})
	}
}

// TestWireCloseWithFramesInFlight closes a wire whose queue is full of
// frames not yet due: Close returns without waiting for them and neither
// the wire nor the devices leave a goroutine behind.
func TestWireCloseWithFramesInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b, space, done := devicePair(t, WireConfig{BitsPerSec: 1e6, Latency: time.Minute})
	postBuffers(t, space, b, 4)
	txPool, _ := space.NewPool("tx", 2048, 1)
	frame := buildFrame(t, bytes.Repeat([]byte("q"), 1400), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	desc := TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}}
	// Fill the queue, then post more so the TX engine blocks in transmit.
	for i := 0; i < wireQueueFrames; i++ {
		if err := a.PostTx(desc); err != nil {
			t.Fatal(err)
		}
	}
	waitTx(t, a, wireQueueFrames)
	for i := 0; i < 8; i++ {
		if err := a.PostTx(desc); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		done()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waits for frames in flight")
	}
	if got := len(b.CollectRx()); got != 0 {
		t.Fatalf("%d frames delivered a minute early", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
}

// TestWireYieldsWhileFrameInFlight holds the wire to sharing the processor
// with the stack: on one P, with a frame waiting out its latency, a goroutine
// that yields in a loop keeps running until the frame arrives. A delivery
// loop that spins to the due instant holds the only P for the whole wait, and
// this goroutine gets no turn between transmit and delivery.
func TestWireYieldsWhileFrameInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, b, space, done := devicePair(t, WireConfig{Latency: 400 * time.Microsecond})
	defer done()
	postBuffers(t, space, b, 1)
	txPool, _ := space.NewPool("tx", 2048, 1)
	frame := buildFrame(t, []byte("in flight"), true)
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	if err := a.PostTx(TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	inFlight := 0
	for len(b.CollectRx()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame not delivered")
		}
		if a.Stats().TxFrames == 1 {
			inFlight++
		}
		runtime.Gosched()
	}
	if inFlight < 50 {
		t.Fatalf("%d turns while the frame was in flight, want at least 50", inFlight)
	}
}

func BenchmarkDeviceTxRx1500(b *testing.B) {
	space := shm.NewSpace()
	a := NewDevice(DeviceConfig{Name: "a", CsumOffload: true}, space)
	dst := NewDevice(DeviceConfig{Name: "b", CsumOffload: true}, space)
	w := NewWire(WireConfig{})
	w.AttachA(a)
	w.AttachB(dst)
	defer func() { w.Close(); a.Close(); dst.Close() }()
	rxPool, _ := space.NewPool("rx", 2048, RxRingSize)
	for i := 0; i < RxRingSize; i++ {
		ptr, _, _ := rxPool.Alloc()
		_ = dst.PostRx(ptr)
	}
	txPool, _ := space.NewPool("tx", 2048, 8)
	frame := make([]byte, 1514)
	copy(frame, buildFrame(b, bytes.Repeat([]byte("x"), 1400), true))
	ptr, buf, _ := txPool.Alloc()
	copy(buf, frame)
	desc := TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a.PostTx(desc) != nil {
			a.CollectTx()
		}
		// Recycle RX buffers (reconstruct the full chunk pointer).
		for _, c := range dst.CollectRx() {
			full := shm.RichPtr{Pool: c.Ptr.Pool, Off: c.Ptr.Off - c.Ptr.Off%2048, Len: 2048}
			_ = dst.PostRx(full)
		}
		a.CollectTx()
	}
}
