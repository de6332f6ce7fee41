package main

import (
	"fmt"

	"newtos/internal/core"
	"newtos/internal/ipeng"
	"newtos/internal/ipsrv"
	"newtos/internal/nic"
	"newtos/internal/pf"
	"newtos/internal/pfeng"
	"newtos/internal/storage"
	"newtos/internal/tcpeng"
	"newtos/internal/tcpsrv"
	"newtos/internal/udpeng"
	"newtos/internal/udpsrv"
	"newtos/internal/wiring"
)

// shells are the server shells whose outbox drop counters are reported, by
// component name; "driver" is the node's one NIC driver, eth0.
var shells = []struct{ metric, comp string }{
	{"syscallsrv", core.CompSC}, {"tcpsrv", core.CompTCP}, {"udpsrv", core.CompUDP},
	{"ipsrv", core.CompIP}, {"pf", core.CompPF}, {"driver", "eth0"},
}

// nodeHandles are one node's engines and counters. The engines' Stats are
// plain fields owned by their server loops, so the only race-free way to
// read them from outside is to take the handles while the node runs and
// read them after it has stopped.
type nodeHandles struct {
	tcp   *tcpeng.Engine
	udp   *udpeng.Engine
	ip    *ipeng.Engine
	pf    *pfeng.Engine
	drops map[string]wiring.DropReporter
	store *storage.Store
	dev   *nic.Device
}

func grab(n *core.Node, dev *nic.Device) (nodeHandles, error) {
	h := nodeHandles{store: n.Hub.Store, dev: dev, drops: map[string]wiring.DropReporter{}}
	svc := func(comp string) any {
		if p := n.Proc(comp); p != nil {
			return p.Service()
		}
		return nil
	}
	t, ok1 := svc(core.CompTCP).(*tcpsrv.Server)
	u, ok2 := svc(core.CompUDP).(*udpsrv.Server)
	i, ok3 := svc(core.CompIP).(*ipsrv.Server)
	p, ok4 := svc(core.CompPF).(*pf.Server)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return h, fmt.Errorf("node %s: a stack server is not running", n.Cfg.Name)
	}
	h.tcp, h.udp, h.ip, h.pf = t.Engine(), u.Engine(), i.Engine(), p.Engine()
	for _, s := range shells {
		d, ok := svc(s.comp).(wiring.DropReporter)
		if !ok {
			return h, fmt.Errorf("node %s: %s reports no outbox drops", n.Cfg.Name, s.comp)
		}
		h.drops[s.metric] = d
	}
	return h, nil
}
