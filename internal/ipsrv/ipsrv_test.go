package ipsrv

import (
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/faults"
	"newtos/internal/ipeng"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/proc"
	"newtos/internal/wiring"
)

// fakeDriver plays one driver component on its "ip-<name>" edge.
type fakeDriver struct {
	ports    *wiring.Ports
	end      *wiring.Edge
	supplied int // OpRxSupply requests received by this incarnation
}

func (d *fakeDriver) reincarnate() {
	d.ports.Begin(channel.NewDoorbell())
	d.end = wiring.NewEdge(d.ports.Attach("ip-" + d.ports.Name()))
	d.supplied = 0
}

func (d *fakeDriver) drain() {
	d.end.Intake(make([]msg.Req, wiring.ScratchLen), nil, func(b []msg.Req) {
		for _, r := range b {
			if r.Op == msg.OpRxSupply {
				d.supplied++
			}
		}
	})
}

// TestDriverRestartRecoversOnlyThatDriver: IP keeps one edge per peer, and
// a peer's reincarnation runs that peer's recovery exactly once — a
// restarted driver is handed a fresh receive complement, its sibling is
// left alone.
func TestDriverRestartRecoversOnlyThatDriver(t *testing.T) {
	hub := wiring.NewHub(kipc.New(kipc.Config{}))
	srv := New(Config{
		Ifaces: []ipeng.IfaceConfig{
			{Name: "eth0", IP: netpkt.IPAddr{10, 0, 0, 1}, MaskBits: 24},
			{Name: "eth1", IP: netpkt.IPAddr{10, 0, 1, 1}, MaskBits: 24},
		},
		Drivers: []string{"eth0", "eth1"}, Offload: true,
	}, wiring.NewPorts(hub, "ip"))
	rt := &proc.Runtime{Bell: channel.NewDoorbell(), Fault: faults.NewPoint("ip"), Incarnation: 1}
	if err := srv.Init(rt, false); err != nil {
		t.Fatal(err)
	}
	eth0 := &fakeDriver{ports: wiring.NewPorts(hub, "eth0")}
	eth1 := &fakeDriver{ports: wiring.NewPorts(hub, "eth1")}
	eth0.reincarnate()
	eth1.reincarnate()

	now := time.Unix(0, 0)
	poll := func() {
		for i := 0; i < 3; i++ {
			now = now.Add(time.Millisecond)
			srv.Poll(now)
			eth0.drain()
			eth1.drain()
		}
	}
	poll()
	if eth0.supplied != ipeng.RxBufsPerDriver || eth1.supplied != ipeng.RxBufsPerDriver {
		t.Fatalf("after wiring: eth0 got %d buffers, eth1 %d, want %d each", eth0.supplied, eth1.supplied, ipeng.RxBufsPerDriver)
	}

	eth0.reincarnate()
	poll()
	if eth0.supplied != ipeng.RxBufsPerDriver {
		t.Fatalf("restarted eth0 got %d buffers, want a fresh complement of %d", eth0.supplied, ipeng.RxBufsPerDriver)
	}
	if eth1.supplied != ipeng.RxBufsPerDriver {
		t.Fatalf("eth1 got %d buffers in total; its sibling's restart must not resupply it", eth1.supplied)
	}
	if got := srv.OutboxDropped(); got != 0 {
		t.Fatalf("OutboxDropped = %d with nothing staged across the restart", got)
	}
}
