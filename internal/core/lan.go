package core

import (
	"fmt"

	"newtos/internal/ipeng"
	"newtos/internal/kipc"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/wiring"
)

// LAN is the evaluation topology: two nodes connected by one wire per
// interface pair (the paper's test machines with up to five point-to-point
// gigabit links).
type LAN struct {
	A, B  *Node
	Wires []*nic.Wire
}

// LANOpts tunes topology details beyond the paper defaults.
type LANOpts struct {
	// PeerGateways installs on every interface a gateway route via the
	// peer's address on that wire. With plain subnet routes a dst is only
	// reachable over its own wire; peer gateways give the route table a
	// live fallback, so a link failure mid-transfer can fail over to a
	// surviving NIC (experiments.TestLinkFailover).
	PeerGateways bool
}

// NewLAN builds two mirrored nodes from base (Name/Ifaces are filled in),
// with nWires links. Link i carries subnet 10.0.<i>.0/24: A = .1, B = .2.
func NewLAN(base Config, nWires int, wcfg nic.WireConfig) (*LAN, error) {
	return NewLANOpt(base, nWires, wcfg, LANOpts{})
}

// NewLANOpt is NewLAN with explicit topology options.
func NewLANOpt(base Config, nWires int, wcfg nic.WireConfig, o LANOpts) (*LAN, error) {
	hubA := wiring.NewHub(kipc.New(base.Kernel))
	hubB := wiring.NewHub(kipc.New(base.Kernel))

	lan := &LAN{}
	devsA := make(map[string]*nic.Device, nWires)
	devsB := make(map[string]*nic.Device, nWires)
	var ifacesA, ifacesB []ipeng.IfaceConfig
	for i := 0; i < nWires; i++ {
		name := fmt.Sprintf("eth%d", i)
		dcfgA := nic.DeviceConfig{
			Name: name, MAC: netpkt.MAC{0xaa, 0, 0, 0, 0, byte(i)},
			CsumOffload: base.Offload, TSOOffload: base.TSO,
			LinkUpDelay: base.LinkUpDelay,
		}
		dcfgB := dcfgA
		dcfgB.MAC = netpkt.MAC{0xbb, 0, 0, 0, 0, byte(i)}
		devA := nic.NewDevice(dcfgA, hubA.Space)
		devB := nic.NewDevice(dcfgB, hubB.Space)
		w := nic.NewWire(wcfg)
		w.AttachA(devA)
		w.AttachB(devB)
		lan.Wires = append(lan.Wires, w)
		devsA[name] = devA
		devsB[name] = devB
		icA := ipeng.IfaceConfig{
			Name: name, IP: netpkt.IPAddr{10, 0, byte(i), 1}, MaskBits: 24,
		}
		icB := ipeng.IfaceConfig{
			Name: name, IP: netpkt.IPAddr{10, 0, byte(i), 2}, MaskBits: 24,
		}
		if o.PeerGateways {
			icA.GW = icB.IP
			icB.GW = icA.IP
		}
		ifacesA = append(ifacesA, icA)
		ifacesB = append(ifacesB, icB)
	}

	cfgA := base
	cfgA.Name, cfgA.Ifaces = "nodeA", ifacesA
	cfgB := base
	cfgB.Name, cfgB.Ifaces = "nodeB", ifacesB

	a, err := NewNode(cfgA, hubA, devsA)
	if err != nil {
		return nil, err
	}
	b, err := NewNode(cfgB, hubB, devsB)
	if err != nil {
		return nil, err
	}
	lan.A, lan.B = a, b
	return lan, nil
}

// Start boots both nodes.
func (l *LAN) Start() error {
	if err := l.A.Start(); err != nil {
		return err
	}
	return l.B.Start()
}

// Stop tears everything down.
func (l *LAN) Stop() {
	l.A.Stop()
	l.B.Stop()
	for _, w := range l.Wires {
		w.Close()
	}
	for _, n := range []*Node{l.A, l.B} {
		for _, d := range n.devices {
			d.Close()
		}
	}
}

// IPOf returns node n's address on link i (n is "a" or "b").
func (l *LAN) IPOf(side string, link int) netpkt.IPAddr {
	host := byte(1)
	if side == "b" {
		host = 2
	}
	return netpkt.IPAddr{10, 0, byte(link), host}
}

// SetLink administratively raises or lowers one end of a wire; carrier is
// lost on both ends (nic.Device.SetLink), and the drivers on each side
// report the transition to their IP servers as link events.
func (l *LAN) SetLink(side string, link int, up bool) {
	l.DeviceOf(side, link).SetLink(up)
}

// DeviceOf exposes a node's device for raw frame injection (examples,
// attack simulations). side is "a" or "b"; link indexes the wire.
func (l *LAN) DeviceOf(side string, link int) *nic.Device {
	n := l.A
	if side == "b" {
		n = l.B
	}
	return n.devices[fmt.Sprintf("eth%d", link)]
}
