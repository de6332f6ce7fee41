package driver

import (
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/proc"
	"newtos/internal/shm"
	"newtos/internal/wiring"
)

// rig boots one driver server against a loopback-less device and gives the
// test the IP side of its channel.
type rig struct {
	t    *testing.T
	hub  *wiring.Hub
	dev  *nic.Device
	wire *nic.Wire
	peer *nic.Device
	p    *proc.Proc
	// ip is the IP side of the edge; inbox holds what it has drained and
	// the test has not consumed yet.
	ip    *wiring.Edge
	inbox []msg.Req
}

// poll runs the IP side's intake: adopt a rebind, collect driver->IP
// messages. Reports whether either happened.
func (r *rig) poll() bool {
	return r.ip.Intake(nil, func(b []msg.Req) {
		r.inbox = append(r.inbox, b...)
	})
}

// recv pops the next driver->IP message, if any.
func (r *rig) recv() (msg.Req, bool) {
	if len(r.inbox) == 0 && !r.poll() {
		return msg.Req{}, false
	}
	m := r.inbox[0]
	r.inbox = r.inbox[1:]
	return m, true
}

// send delivers one IP->driver request.
func (r *rig) send(req msg.Req) bool {
	r.ip.Push(req)
	return r.ip.Flush()
}

func newRig(t *testing.T) *rig { return newRigWith(t, 0) }

// newRigWith boots the rig with a device whose link trains for linkUpDelay
// after a reset.
func newRigWith(t *testing.T, linkUpDelay time.Duration) *rig {
	t.Helper()
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	dev := nic.NewDevice(nic.DeviceConfig{Name: "eth0", MAC: netpkt.MAC{1, 2, 3, 4, 5, 6}, LinkUpDelay: linkUpDelay}, hub.Space)
	peer := nic.NewDevice(nic.DeviceConfig{Name: "peer"}, hub.Space)
	w := nic.NewWire(nic.WireConfig{})
	w.AttachA(dev)
	w.AttachB(peer)

	ports := wiring.NewPorts(hub, "eth0")
	p := proc.New("eth0", func() proc.Service { return New("eth0", ports, dev) },
		nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	// Play the IP server: create the edge as its creator.
	ipPorts := wiring.NewPorts(hub, "ip")
	ipPorts.Begin(channel.NewDoorbell())
	r := &rig{t: t, hub: hub, dev: dev, wire: w, peer: peer, p: p,
		ip: wiring.NewEdge(ipPorts.Export("ip-eth0", "eth0"))}
	deadline := time.Now().Add(2 * time.Second)
	for !r.poll() {
		if time.Now().After(deadline) {
			t.Fatal("edge never wired")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		p.Shutdown()
		w.Close()
	})
	return r
}

// recvFrom collects driver->IP messages until pred or timeout.
func (r *rig) waitMsg(pred func(msg.Req) bool) msg.Req {
	r.t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if m, ok := r.recv(); ok {
			if pred(m) {
				return m
			}
			continue
		}
		time.Sleep(time.Millisecond)
	}
	r.t.Fatal("expected driver message never arrived")
	return msg.Req{}
}

func TestDriverAnnouncesMAC(t *testing.T) {
	r := newRig(t)
	info := r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpDrvInfo })
	wantMAC := uint64(0x010203040506)
	if info.Arg[0] != wantMAC {
		t.Fatalf("mac = %x, want %x", info.Arg[0], wantMAC)
	}
}

func TestDriverTransmitsAndCompletes(t *testing.T) {
	r := newRig(t)
	r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpDrvInfo })

	pool, _ := r.hub.Space.NewPool("txtest", 2048, 4)
	ptr, buf, _ := pool.Alloc()
	n := copy(buf, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 0x08, 0x06})
	req := msg.Req{ID: 1234, Op: msg.OpTxSubmit}
	req.SetChain([]shm.RichPtr{ptr.Slice(0, uint32(n))})
	if !r.send(req) {
		t.Fatal("send failed")
	}
	done := r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpTxDone })
	if done.ID != 1234 || done.Status != msg.StatusOK {
		t.Fatalf("txdone = %+v", done)
	}
	if r.dev.Stats().TxFrames != 1 {
		t.Fatalf("device tx frames = %d", r.dev.Stats().TxFrames)
	}
}

func TestDriverDeliversReceivedFrames(t *testing.T) {
	r := newRig(t)
	r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpDrvInfo })

	// Supply one RX buffer (playing IP).
	pool, _ := r.hub.Space.NewPool("rxtest", 2048, 4)
	ptr, _, _ := pool.Alloc()
	sup := msg.Req{ID: 1, Op: msg.OpRxSupply}
	sup.SetChain([]shm.RichPtr{ptr})
	r.send(sup)

	// Peer transmits frames until one lands (the first may race the
	// driver posting the supplied buffer and be dropped for lack of a
	// descriptor — which is faithful device behaviour).
	txPool, _ := r.hub.Space.NewPool("peertx", 2048, 4)
	p2, buf, _ := txPool.Alloc()
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x06 // ARP ethertype; payload irrelevant
	n := copy(buf, frame)
	var rx msg.Req
	got := false
	deadline := time.Now().Add(3 * time.Second)
	for !got && time.Now().Before(deadline) {
		_ = r.peer.PostTx(nic.TxDesc{Ptrs: []shm.RichPtr{p2.Slice(0, uint32(n))}, Cookie: 9})
		r.peer.CollectTx()
		inner := time.Now().Add(100 * time.Millisecond)
		for time.Now().Before(inner) {
			if m, ok := r.recv(); ok && m.Op == msg.OpRxPacket {
				rx, got = m, true
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !got {
		t.Fatal("frame never delivered to IP")
	}
	if int(rx.Arg[0]) != len(frame) {
		t.Fatalf("rx len = %d, want %d", rx.Arg[0], len(frame))
	}
}

// TestInterruptRingsTheDriver: the driver registers no kernel endpoint. A
// frame the device receives raises an interrupt, which is one trap and a
// ring of the driver's doorbell; the ring is what brings the frame to IP.
func TestInterruptRingsTheDriver(t *testing.T) {
	r := newRig(t)
	r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpDrvInfo })
	if id, ok := r.hub.Kern.Lookup("eth0"); ok {
		t.Fatalf("kernel endpoint %d registered under the driver's name", id)
	}
	bell := r.p.Service().(*Server).rt.Bell

	pool, _ := r.hub.Space.NewPool("rxtest", 2048, 4)
	ptr, _, _ := pool.Alloc()
	sup := msg.Req{ID: 1, Op: msg.OpRxSupply}
	sup.SetChain([]shm.RichPtr{ptr})
	if !r.send(sup) {
		t.Fatal("supply not sent")
	}
	// The supply's own ring is counted by now; from here on only the
	// device rings the driver.
	before := bell.Posts()

	txPool, _ := r.hub.Space.NewPool("peertx", 2048, 4)
	p2, buf, _ := txPool.Alloc()
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x06
	n := copy(buf, frame)
	deadline := time.Now().Add(3 * time.Second)
	for r.dev.Stats().RxFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("device never received a frame")
		}
		// The first frames may beat the driver posting the supplied buffer.
		_ = r.peer.PostTx(nic.TxDesc{Ptrs: []shm.RichPtr{p2.Slice(0, uint32(n))}, Cookie: 9})
		r.peer.CollectTx()
		time.Sleep(time.Millisecond)
	}
	// The device counts the frame just before it raises the interrupt.
	for bell.Posts() == before {
		if time.Now().After(deadline) {
			t.Fatal("a received frame did not ring the driver's doorbell")
		}
		time.Sleep(time.Millisecond)
	}
	r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpRxPacket })
}

func TestDriverForwardsLinkTransitions(t *testing.T) {
	r := newRig(t)
	// Boot announces MAC and the initial (up) link state.
	r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpDrvInfo })
	ev := r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpLinkEvent })
	if ev.Arg[0] != 1 {
		t.Fatalf("initial link event = %+v, want up", ev)
	}

	r.dev.SetLink(false)
	ev = r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpLinkEvent })
	if ev.Arg[0] != 0 {
		t.Fatalf("link-down event = %+v, want down", ev)
	}

	r.dev.SetLink(true)
	ev = r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpLinkEvent })
	if ev.Arg[0] != 1 {
		t.Fatalf("link-up event = %+v, want up", ev)
	}
}

func TestDriverSurvivesRestartAndResetsDevice(t *testing.T) {
	r := newRig(t)
	r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpDrvInfo })
	resets := r.dev.Stats().Resets

	if err := r.p.Restart(); err != nil {
		t.Fatal(err)
	}
	// New incarnation resets the device (descriptor state unrecoverable)
	// and re-announces itself on the re-created channel. We (playing IP)
	// must re-take the port, as the real IP server does.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.dev.Stats().Resets > resets {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if r.dev.Stats().Resets == resets {
		t.Fatal("device not reset on driver restart")
	}
}

// TestResetRetrainsOnDeadline: a reset link comes up without an interrupt,
// so while it trains the driver's Deadline is the link-up instant, and the
// up event reaches IP once that instant passes.
func TestResetRetrainsOnDeadline(t *testing.T) {
	const delay = 30 * time.Millisecond
	r := newRigWith(t, delay)
	r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpDrvInfo })
	if ev := r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpLinkEvent }); ev.Arg[0] != 1 {
		t.Fatalf("initial link event = %+v, want up", ev)
	}
	s := New("eth0", wiring.NewPorts(r.hub, "eth0"), r.dev)
	if dl := s.Deadline(time.Now()); !dl.IsZero() {
		t.Fatalf("Deadline = %v on a trained link, want zero", dl)
	}

	before := time.Now()
	if !r.send(msg.Req{Op: msg.OpDrvReset}) {
		t.Fatal("reset request not sent")
	}
	if ev := r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpLinkEvent }); ev.Arg[0] != 0 {
		t.Fatalf("link event after reset = %+v, want down", ev)
	}
	at := r.dev.LinkUpAt()
	if at.Before(before.Add(delay)) {
		t.Fatalf("link-up instant %v is earlier than reset + %v", at.Sub(before), delay)
	}
	if dl := s.Deadline(at.Add(-time.Millisecond)); !dl.Equal(at) {
		t.Fatalf("Deadline while training = %v, want the link-up instant %v", dl, at)
	}
	// At the instant itself the deadline is spent: the device counts the
	// link as up from then on, so a due deadline never meets a training link.
	if dl := s.Deadline(at); !dl.IsZero() {
		t.Fatalf("Deadline at the link-up instant = %v, want zero", dl)
	}
	if dl := s.Deadline(at.Add(time.Nanosecond)); !dl.IsZero() {
		t.Fatalf("Deadline after training = %v, want zero", dl)
	}
	if ev := r.waitMsg(func(m msg.Req) bool { return m.Op == msg.OpLinkEvent }); ev.Arg[0] != 1 {
		t.Fatalf("link event after training = %+v, want up", ev)
	}
	if now := time.Now(); now.Before(at) {
		t.Fatalf("link reported up %v before its link-up instant", at.Sub(now))
	}
}
