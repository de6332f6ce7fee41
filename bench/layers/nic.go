package layers

import (
	"errors"
	"runtime"
	"syscall"
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/shm"
)

// nicPair is two devices on one wire, driven from one goroutine the way a
// driver server would: post descriptors, collect completions, re-post
// receive buffers.
type nicPair struct {
	space *shm.Space
	a, b  *nic.Device
	wire  *nic.Wire
	hdr   shm.RichPtr   // Ethernet + IPv4 + TCP header template
	pay   []shm.RichPtr // 4 KiB payload chunks
}

const (
	nicMSS       = 1460
	nicTSOChunks = 15 // × 4 KiB = 61440 B, the largest burst an IPv4 length field can carry in whole chunks
)

func newNICPair(wcfg nic.WireConfig) (*nicPair, error) {
	space := shm.NewSpace()
	p := &nicPair{space: space}
	txPool, err := space.NewPool("nic.tx", 4096, nicTSOChunks+1)
	if err != nil {
		return nil, err
	}
	rxPool, err := space.NewPool("nic.rx", 2048, nic.RxRingSize)
	if err != nil {
		return nil, err
	}
	var hb []byte
	if p.hdr, hb, err = txPool.Alloc(); err != nil {
		return nil, err
	}
	for i := 0; i < nicTSOChunks; i++ {
		ptr, _, err := txPool.Alloc()
		if err != nil {
			return nil, err
		}
		p.pay = append(p.pay, ptr)
	}
	macA, macB := netpkt.MAC{0xaa, 0, 0, 0, 0, 1}, netpkt.MAC{0xbb, 0, 0, 0, 0, 1}
	eh := netpkt.EthHeader{Dst: macB, Src: macA, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(hb)
	th := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Flags: netpkt.TCPAck, Window: 65535}
	th.Marshal(hb[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:])
	p.hdr = p.hdr.Slice(0, netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+netpkt.TCPHeaderLen)

	p.a = nic.NewDevice(nic.DeviceConfig{Name: "eth0", MAC: macA, CsumOffload: true, TSOOffload: true}, space)
	p.b = nic.NewDevice(nic.DeviceConfig{Name: "eth0", MAC: macB, CsumOffload: true, TSOOffload: true}, space)
	p.wire = nic.NewWire(wcfg)
	p.wire.AttachA(p.a)
	p.wire.AttachB(p.b)
	for i := 0; i < nic.RxRingSize; i++ {
		ptr, _, err := rxPool.Alloc()
		if err != nil {
			p.close()
			return nil, err
		}
		if err := p.b.PostRx(ptr); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *nicPair) close() {
	p.wire.Close()
	p.a.Close()
	p.b.Close()
}

// setLen writes the IPv4 total length for a payload of n bytes into the
// header template.
func (p *nicPair) setLen(n int) error {
	hb, err := p.space.View(p.hdr)
	if err != nil {
		return err
	}
	ih := netpkt.IPv4Header{
		TotalLen: uint16(netpkt.IPv4HeaderLen + netpkt.TCPHeaderLen + n), TTL: 64,
		Proto: netpkt.ProtoTCP, Src: netpkt.IPAddr{10, 0, 0, 1}, Dst: netpkt.IPAddr{10, 0, 0, 2},
	}
	ih.Marshal(hb[netpkt.EthHeaderLen:], false)
	return nil
}

// frame is the descriptor of one full-size frame, burst that of one TSO
// burst of nicTSOChunks payload chunks.
func (p *nicPair) frame() nic.TxDesc {
	return nic.TxDesc{
		Ptrs:  []shm.RichPtr{p.hdr, p.pay[0].Slice(0, nicMSS)},
		Flags: nic.TxCsumIP | nic.TxCsumL4,
	}
}

func (p *nicPair) burst() nic.TxDesc {
	return nic.TxDesc{
		Ptrs:    append([]shm.RichPtr{p.hdr}, p.pay...),
		Flags:   nic.TxCsumIP | nic.TxCsumL4 | nic.TxTSO,
		SegSize: nicMSS,
	}
}

// pump posts desc until `want` frames have reached B's receive ring, waits
// for the device to complete every descriptor it was given (the caller may
// rewrite the header template afterwards), and returns how many frames
// arrived. window bounds the descriptors in flight; idle is what the loop
// does when a pass moved nothing.
func (p *nicPair) pump(desc nic.TxDesc, want, window int, idle func()) (int, error) {
	got, inFlight := 0, 0
	deadline := time.Now().Add(5 * time.Second)
	for got < want || inFlight > 0 {
		progress := false
		for got < want && inFlight < window && p.a.PostTx(desc) == nil {
			inFlight++
			progress = true
		}
		for _, c := range p.a.CollectTx() {
			if !c.OK {
				return got, errors.New("a descriptor was not transmitted")
			}
			inFlight--
			progress = true
		}
		for _, c := range p.b.CollectRx() {
			got++
			full := c.Ptr
			full.Len = 2048
			if err := p.b.PostRx(full); err != nil {
				return got, err
			}
			progress = true
		}
		if !progress {
			if time.Now().After(deadline) {
				return got, errors.New("frames stopped arriving")
			}
			idle()
		}
	}
	return got, nil
}

// driveNIC measures the simulated device and wire: a full-size frame and a
// TSO burst through two devices on an uncapped wire (the device's own
// cost), and the processor time a gigabit wire burns per second of wall
// time at line rate — its pacing loops spin on time.Now, and on a 2-vCPU
// box that is a core the stack does not get.
func driveNIC(b *bench) error {
	p, err := newNICPair(nic.WireConfig{})
	if err != nil {
		return err
	}
	defer p.close()
	var stepErr error
	keep := func(err error) {
		if err != nil && stepErr == nil {
			stepErr = err
		}
	}

	keep(p.setLen(nicMSS))
	frames := b.run("nic.frame", func() int {
		n, err := p.pump(p.frame(), 64, 64, runtime.Gosched)
		keep(err)
		return max(n, 1)
	})
	if stepErr != nil {
		return stepErr
	}
	b.rep.add("nic.tx_ns_per_frame", frames.ns, "ns")
	b.rep.add("nic.allocs_per_frame", frames.allocs, "count")

	burstBytes := nicTSOChunks * 4096
	keep(p.setLen(burstBytes))
	perBurst := (burstBytes + nicMSS - 1) / nicMSS
	bursts := b.run("nic.tso", func() int {
		n, err := p.pump(p.burst(), 4*perBurst, 4, runtime.Gosched)
		keep(err)
		return max(n, 1) // frames
	})
	if stepErr != nil {
		return stepErr
	}
	b.rep.add("nic.tso_ns_per_64k", bursts.ns*float64(perBurst)*65536/float64(burstBytes), "ns")

	// The gigabit wire at line rate. The pump sleeps when it has nothing
	// to do (128 frames in flight are 1.5 ms of line time), so the
	// processor time measured is the wire's and the devices', not the
	// driver's polling.
	g, err := newNICPair(nic.Gigabit())
	if err != nil {
		return err
	}
	defer g.close()
	keep(g.setLen(nicMSS))
	cpu0, t0 := CPUTime(), time.Now()
	b.run("nic.wire", func() int {
		n, err := g.pump(g.frame(), 256, 128, func() { time.Sleep(200 * time.Microsecond) })
		keep(err)
		return max(n, 1)
	})
	cpu, wall := CPUTime()-cpu0, time.Since(t0)
	b.rep.add("nic.wire_cpu_per_wall_s", cpu.Seconds()/wall.Seconds(), "s/s")
	return stepErr
}

// CPUTime is the processor time, user and system, this process has used.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
