// Package core assembles NewtOS nodes: it builds the multiserver
// networking stack in each of the paper's configurations (Table II),
// wires the servers' channels, adopts every component at the
// reincarnation server, and exposes lifecycle and fault-injection hooks
// for the evaluation harnesses.
//
// One Node is one machine: a microkernel, a shared-memory space, a channel
// registry, a storage server, a reincarnation server, and the stack
// servers — driver(s), IP, PF, TCP, UDP, SYSCALL — each on its own
// event-loop "core", or, in the single-server placement, IP, PF, TCP and
// UDP sharing one.
package core

import (
	"fmt"
	"time"

	"newtos/internal/ipeng"
	"newtos/internal/kipc"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/pf"
	"newtos/internal/pfeng"
	"newtos/internal/proc"
	"newtos/internal/reinc"
	"newtos/internal/storage"
	"newtos/internal/syscallsrv"
	"newtos/internal/tcpsrv"
	"newtos/internal/udpsrv"
	"newtos/internal/wiring"

	"newtos/internal/driver"
	"newtos/internal/ipsrv"
)

// Component names.
const (
	CompIP      = "ip"
	CompTCP     = "tcp"
	CompUDP     = "udp"
	CompPF      = "pf"
	CompSC      = "sc"
	CompStorage = "storage"
	// CompStack is the one process that hosts IP, PF, TCP and UDP on a
	// Config.SingleServer node, in place of those four components.
	CompStack = "stack"
)

// Config selects a stack configuration (one Table II row).
type Config struct {
	// Name identifies the node (diagnostics).
	Name string
	// Ifaces configures IP; one entry per attached device, names must
	// match the device names.
	Ifaces []ipeng.IfaceConfig
	// SyscallServer interposes the SYSCALL server between applications
	// and the transports (Table II rows 3 vs 2): it hosts the doors
	// (syscallsrv) applications call through. Without it the TCP and UDP
	// servers' processes each host their own door beside the transport.
	SyscallServer bool
	// PF enables the packet filter in the T junction.
	PF bool
	// Offload requests device checksum offload.
	Offload bool
	// TSO additionally enables TCP segmentation offload (rows 5-6).
	TSO bool
	// SingleServer hosts the IP, PF, TCP and UDP servers in one process,
	// CompStack, on one event loop and doorbell (Table II's single-server
	// rows). The servers and every edge between them, to the drivers and to
	// the SYSCALL server are the same code as in the split placement; what
	// changes is that one crash takes all four down.
	SingleServer bool
	// Kernel sets the simulated kernel cost model.
	Kernel kipc.Config
	// HeartbeatMiss tunes hang detection (default 250ms).
	HeartbeatMiss time.Duration
	// LinkUpDelay is the device link-retrain time after a reset — the
	// visible gap of Figure 4 (default 0 for fast tests).
	LinkUpDelay time.Duration
}

// SplitTSO returns the flagship configuration: split stack, SYSCALL
// server, PF, checksum offload and TSO (Table II row 6).
func SplitTSO() Config {
	return Config{
		SyscallServer: true, PF: true, Offload: true, TSO: true,
		Kernel: kipc.DefaultConfig(),
	}
}

// Node is one running NewtOS instance.
type Node struct {
	Cfg     Config
	Hub     *wiring.Hub
	Kern    *kipc.Kernel
	Monitor *reinc.Monitor

	procs   map[string]*proc.Proc
	order   []string // boot order: the order NewNode added the processes in
	devices map[string]*nic.Device
}

// NewNode builds a node over the given devices (keyed by interface name).
// The devices must have been created against hub.Space — they DMA straight
// into the node's pools.
func NewNode(cfg Config, hub *wiring.Hub, devices map[string]*nic.Device) (*Node, error) {
	kern := hub.Kern
	n := &Node{
		Cfg:     cfg,
		Hub:     hub,
		Kern:    kern,
		Monitor: reinc.NewMonitor(reinc.Config{HeartbeatMiss: cfg.HeartbeatMiss}),
		procs:   make(map[string]*proc.Proc),
		devices: devices,
	}

	// Storage server.
	n.addProc(CompStorage, func() proc.Service {
		return storage.NewService(hub.Store)
	})

	// Drivers: one per device, attached to devices built with the node's
	// shared space.
	for name, dev := range devices {
		name, dev := name, dev
		ports := wiring.NewPorts(hub, name)
		n.addProc(name, func() proc.Service {
			return driver.New(name, ports, dev)
		})
	}

	localIP := netpkt.IPAddr{}
	if len(cfg.Ifaces) > 0 {
		localIP = cfg.Ifaces[0].IP
	}
	srcFor := SrcSelector(cfg.Ifaces)

	// The stack servers in boot order, inside-out: IP, PF, the transports.
	// Each becomes its own process, or all of them one (cfg.SingleServer).
	// A server is one shell or, for a transport on a node without the
	// SYSCALL server, two: the transport and the door applications call it
	// through, sharing a process the way the paper's row 2 has it — the
	// transport itself pays the trapping toll the SYSCALL server otherwise
	// absorbs, and the gap between rows 2 and 3 is exactly that.
	type shell = func() proc.Service
	type server struct {
		name   string
		shells []shell
	}
	var stack []server
	// transport adds a transport server to the stack and, when there is no
	// SYSCALL server to hold it, its door as a second shell beside it.
	transport := func(name string, srv shell, d syscallsrv.Door) {
		shells := []shell{srv}
		if !cfg.SyscallServer {
			ports := wiring.NewPorts(hub, "door-"+name)
			shells = append(shells, func() proc.Service { return syscallsrv.New(ports, d) })
		}
		stack = append(stack, server{name, shells})
	}

	ipPorts := wiring.NewPorts(hub, CompIP)
	ipCfg := ipsrv.Config{
		Ifaces: cfg.Ifaces, PFEnabled: cfg.PF, Offload: cfg.Offload,
	}
	stack = append(stack, server{CompIP, []shell{func() proc.Service {
		return ipsrv.New(ipCfg, ipPorts)
	}}})

	if cfg.PF {
		pfPorts := wiring.NewPorts(hub, CompPF)
		stack = append(stack, server{CompPF, []shell{func() proc.Service {
			return pf.New(pfPorts)
		}}})
	}

	// Transports.
	tcpPorts := wiring.NewPorts(hub, CompTCP)
	tcpCfg := tcpsrv.Config{LocalIP: localIP, SrcFor: srcFor, Offload: cfg.Offload, TSO: cfg.TSO}
	transport(CompTCP, func() proc.Service {
		return tcpsrv.New(tcpCfg, tcpPorts)
	}, syscallsrv.TCP())
	udpPorts := wiring.NewPorts(hub, CompUDP)
	udpCfg := udpsrv.Config{LocalIP: localIP, SrcFor: srcFor, Offload: cfg.Offload}
	transport(CompUDP, func() proc.Service {
		return udpsrv.New(udpCfg, udpPorts)
	}, syscallsrv.UDP())

	if cfg.SingleServer {
		var all []shell
		for _, s := range stack {
			all = append(all, s.shells...)
		}
		stack = []server{{CompStack, all}}
	}
	for _, s := range stack {
		n.addProc(s.name, host(s.shells))
	}

	// SYSCALL server: all three doors.
	if cfg.SyscallServer {
		scPorts := wiring.NewPorts(hub, CompSC)
		n.addProc(CompSC, func() proc.Service {
			return syscallsrv.New(scPorts, syscallsrv.TCP(), syscallsrv.UDP(), syscallsrv.PF())
		})
	}
	return n, nil
}

func (n *Node) addProc(name string, factory func() proc.Service) {
	p := proc.New(name, factory, n.Monitor.OnCrash())
	n.procs[name] = p
	n.order = append(n.order, name)
	n.Monitor.Adopt(p)
}

// Start launches every server and the reincarnation monitor.
func (n *Node) Start() error {
	// Boot in the order NewNode assembled the node: storage first (everyone
	// restores through it), then drivers, then the stack inside-out, the
	// SYSCALL server last. The wiring layer tolerates any order, but a
	// deterministic boot keeps logs readable.
	for _, name := range n.order {
		if err := n.procs[name].Start(); err != nil {
			return fmt.Errorf("node %s: start %s: %w", n.Cfg.Name, name, err)
		}
	}
	n.Monitor.Start()
	return nil
}

// Stop shuts the node down, application processes included: halting the
// kernel closes their endpoints, so a sock.Client nobody closed fails its
// calls and ends its pump instead of polling a dead frontdoor forever.
func (n *Node) Stop() {
	n.Monitor.Stop()
	for _, p := range n.procs {
		p.Shutdown()
	}
	n.Kern.Halt()
}

// Proc returns a component's process handle (fault injection, restarts).
func (n *Node) Proc(name string) *proc.Proc { return n.procs[name] }

// Upgrade live-swaps the named component for a new incarnation — the
// zero-downtime update path (docs/ARCHITECTURE.md "Zero-downtime live
// update"). TCP and UDP hand their full state to the successor (zero event
// loss, no peer-visible change); any other component is refused. The swap
// goes through the reincarnation server's Upgrade verb, which records it
// as a Planned event.
func (n *Node) Upgrade(name string) (proc.HandoffReport, error) {
	return n.Monitor.Upgrade(name)
}

// OutboxDropped totals, across every running server loop on this node, the
// staged requests shed because their target incarnation died before they
// flushed — the observable cost of the restart rule during recovery
// (wiring.Edge).
func (n *Node) OutboxDropped() uint64 {
	var total uint64
	for _, c := range n.OutboxDroppedPer() {
		total += c
	}
	return total
}

// OutboxDroppedPer breaks OutboxDropped down by component. Counters are
// per-incarnation (a restarted component starts from zero), so deltas
// across a crash must be taken per component, never on the node total.
func (n *Node) OutboxDroppedPer() map[string]uint64 {
	out := make(map[string]uint64, len(n.procs))
	for name, p := range n.procs {
		if r, ok := p.Service().(wiring.DropReporter); ok {
			out[name] = r.OutboxDropped()
		}
	}
	return out
}

// Components lists the crashable stack components on this node (the
// fault-injection population of Table III): every process but storage and
// the SYSCALL server. A SingleServer node has CompStack in place of the
// transports, IP and PF.
func (n *Node) Components() []string {
	var out []string
	for _, name := range n.order {
		if name != CompStorage && name != CompSC {
			out = append(out, name)
		}
	}
	return out
}

// AddPFRule installs a packet-filter rule via the control plane.
func (n *Node) AddPFRule(rule pfeng.Rule) error {
	if !n.Cfg.PF || !n.Cfg.SyscallServer {
		return fmt.Errorf("node %s: PF control needs PF and the SYSCALL server", n.Cfg.Name)
	}
	cli, err := NewPFClient(n.Hub, fmt.Sprintf("pfctl-%d", time.Now().UnixNano()))
	if err != nil {
		return err
	}
	defer cli.Close()
	return cli.AddRule(rule)
}

// SrcSelector builds the multi-homed source-address chooser the transports
// use: the interface address on the destination's subnet, falling back to
// the first interface.
func SrcSelector(ifaces []ipeng.IfaceConfig) func(netpkt.IPAddr) netpkt.IPAddr {
	return func(dst netpkt.IPAddr) netpkt.IPAddr {
		for _, ic := range ifaces {
			if dst.InSubnet(ic.IP, ic.MaskBits) {
				return ic.IP
			}
		}
		if len(ifaces) > 0 {
			return ifaces[0].IP
		}
		return netpkt.IPAddr{}
	}
}
