package layers

import (
	"errors"
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
)

// ScanRules is the rule set the workloads install on both nodes and the
// driver measures: 64 block rules no benchmark packet matches (TCP and UDP
// to 192.0.2.0/24, ports 1..64), then a pass rule, so a packet without
// conntrack state pays for a real rule scan.
func ScanRules() []pfeng.Rule {
	var rules []pfeng.Rule
	for i := 0; i < 64; i++ {
		rules = append(rules, pfeng.Rule{
			Action: pfeng.Block, Dir: pfeng.AnyDir,
			Dst: netpkt.IPAddr{192, 0, 2, byte(i)}, DstBits: 32, DstPort: uint16(1 + i),
		})
	}
	return append(rules, pfeng.Rule{Action: pfeng.Pass, Dir: pfeng.AnyDir})
}

// drivePF measures one verdict on a raw TCP packet: when conntrack knows
// the flow (every packet of a connection the node opened) and when it does
// not, so all rules are scanned (every packet of a connection the peer
// opened: node B in the bulk workloads, and every SYN of conn_churn).
func drivePF(b *bench) error {
	e := pfeng.New(0)
	for _, rule := range ScanRules() {
		e.AddRule(rule)
	}

	pkt := make([]byte, netpkt.IPv4HeaderLen+netpkt.TCPHeaderLen)
	packet := func(flags uint8) {
		ih := netpkt.IPv4Header{
			TotalLen: uint16(len(pkt)), TTL: 64, Proto: netpkt.ProtoTCP,
			Src: netpkt.IPAddr{10, 0, 0, 1}, Dst: netpkt.IPAddr{10, 0, 0, 2},
		}
		ih.Marshal(pkt, true)
		th := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Flags: flags, Window: 65535}
		th.Marshal(pkt[netpkt.IPv4HeaderLen:])
	}
	now := time.Unix(1_000_000, 0)
	blocked := false
	verdict := func(dir pfeng.Dir) func() int {
		return func() int {
			for i := 0; i < 64; i++ {
				blocked = blocked || e.VerdictPacket(dir, "eth0", pkt, now) != pfeng.Pass
			}
			return 64
		}
	}

	// Inbound packets of a flow the peer opened: no state, full scan.
	packet(netpkt.TCPAck)
	scan := b.run("pfeng.scan", verdict(pfeng.In))
	b.rep.add("pfeng.verdict_ns_scan64", scan.ns, "ns")

	// An outbound SYN creates state; the flow's later packets hit it.
	packet(netpkt.TCPSyn)
	e.VerdictPacket(pfeng.Out, "eth0", pkt, now)
	packet(netpkt.TCPAck)
	hit := b.run("pfeng.state_hit", verdict(pfeng.Out))
	b.rep.add("pfeng.verdict_ns_state_hit", hit.ns, "ns")
	b.rep.add("pfeng.allocs_per_verdict", (scan.allocs+hit.allocs)/2, "count")
	if blocked {
		return errors.New("a benchmark packet was blocked")
	}
	if st := e.Stats(); st.StateHits == 0 || st.StatesCreated != 1 {
		return errors.New("the state-hit phase did not hit conntrack state")
	}
	return nil
}
