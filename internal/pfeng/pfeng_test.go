package pfeng

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"newtos/internal/netpkt"
)

var (
	hostA = netpkt.MustIP("10.0.0.1")
	hostB = netpkt.MustIP("10.0.0.2")
	evil  = netpkt.MustIP("192.168.66.6")
)

func tcpFlow(src, dst netpkt.IPAddr, sp, dp uint16) Flow {
	return Flow{Proto: netpkt.ProtoTCP, Src: src, Dst: dst, SrcPort: sp, DstPort: dp}
}

func TestEmptyRuleSetPasses(t *testing.T) {
	e := New(0)
	if v := e.Verdict(In, "", tcpFlow(hostB, hostA, 1, 2), 0, time.Now()); v != Pass {
		t.Fatalf("verdict = %v", v)
	}
}

func TestLastMatchWins(t *testing.T) {
	e := New(0)
	e.AddRule(Rule{Action: Block, Dir: In})                                     // block all in
	e.AddRule(Rule{Action: Pass, Dir: In, Proto: netpkt.ProtoTCP, DstPort: 22}) // then allow ssh
	now := time.Now()
	if v := e.Verdict(In, "", tcpFlow(evil, hostA, 999, 22), 0, now); v != Pass {
		t.Fatal("ssh not allowed by later rule")
	}
	if v := e.Verdict(In, "", tcpFlow(evil, hostA, 999, 80), 0, now); v != Block {
		t.Fatal("http not blocked")
	}
}

func TestQuickStopsEvaluation(t *testing.T) {
	e := New(0)
	e.AddRule(Rule{Action: Block, Dir: In, Quick: true, Proto: netpkt.ProtoTCP, DstPort: 23})
	e.AddRule(Rule{Action: Pass, Dir: In})
	if v := e.Verdict(In, "", tcpFlow(evil, hostA, 5, 23), 0, time.Now()); v != Block {
		t.Fatal("quick block overridden by later rule")
	}
}

func TestSubnetAndPortMatch(t *testing.T) {
	e := New(0)
	e.AddRule(Rule{Action: Block, Dir: AnyDir, Src: netpkt.MustIP("192.168.0.0"), SrcBits: 16})
	now := time.Now()
	if v := e.Verdict(In, "", tcpFlow(evil, hostA, 1, 2), 0, now); v != Block {
		t.Fatal("subnet source not blocked")
	}
	if v := e.Verdict(In, "", tcpFlow(hostB, hostA, 1, 2), 0, now); v != Pass {
		t.Fatal("other source blocked")
	}
}

func TestStatefulReturnTraffic(t *testing.T) {
	// The paper's firewall scenario: incoming traffic is blocked, but data
	// on established outgoing TCP connections must keep flowing.
	e := New(0)
	e.AddRule(Rule{Action: Block, Dir: In})
	now := time.Now()
	out := tcpFlow(hostA, hostB, 40000, 80)
	// Outbound SYN passes and creates state.
	if v := e.Verdict(Out, "", out, netpkt.TCPSyn, now); v != Pass {
		t.Fatal("outbound SYN blocked")
	}
	if e.Stats().StatesCreated != 1 {
		t.Fatal("no state created")
	}
	// Return SYN|ACK passes despite the block-all-in rule.
	if v := e.Verdict(In, "", out.reverse(), netpkt.TCPSyn|netpkt.TCPAck, now); v != Pass {
		t.Fatal("return traffic blocked")
	}
	// Unrelated inbound is still blocked.
	if v := e.Verdict(In, "", tcpFlow(hostB, hostA, 81, 40001), 0, now); v != Block {
		t.Fatal("unrelated inbound passed")
	}
}

func TestNonSynDoesNotCreateState(t *testing.T) {
	e := New(0)
	now := time.Now()
	e.Verdict(Out, "", tcpFlow(hostA, hostB, 1, 2), netpkt.TCPAck, now)
	if e.Stats().StatesCreated != 0 {
		t.Fatal("pure ACK created state")
	}
	e.Verdict(Out, "", Flow{Proto: netpkt.ProtoUDP, Src: hostA, Dst: hostB, SrcPort: 53, DstPort: 53}, 0, now)
	if e.Stats().StatesCreated != 1 {
		t.Fatal("UDP did not create state")
	}
}

func TestStateExpiry(t *testing.T) {
	e := New(50 * time.Millisecond)
	e.AddRule(Rule{Action: Block, Dir: In})
	t0 := time.Now()
	e.Verdict(Out, "", tcpFlow(hostA, hostB, 1, 2), netpkt.TCPSyn, t0)
	if v := e.Verdict(In, "", tcpFlow(hostB, hostA, 2, 1), 0, t0.Add(10*time.Millisecond)); v != Pass {
		t.Fatal("fresh state missed")
	}
	// Long quiet period: state expires. (The hit above refreshed it.)
	if v := e.Verdict(In, "", tcpFlow(hostB, hostA, 2, 1), 0, t0.Add(10*time.Second)); v != Block {
		t.Fatal("expired state still passing")
	}
}

func TestVerdictPacketParsesHeaders(t *testing.T) {
	e := New(0)
	e.AddRule(Rule{Action: Block, Dir: In, Proto: netpkt.ProtoTCP, DstPort: 8080})
	// Build an IP+TCP packet to port 8080.
	tcp := netpkt.TCPHeader{SrcPort: 1234, DstPort: 8080, Flags: netpkt.TCPSyn}
	buf := make([]byte, netpkt.IPv4HeaderLen+tcp.MarshalLen())
	ip := netpkt.IPv4Header{
		TotalLen: uint16(len(buf)), TTL: 64, Proto: netpkt.ProtoTCP,
		Src: hostB, Dst: hostA,
	}
	ip.Marshal(buf, true)
	tcp.Marshal(buf[netpkt.IPv4HeaderLen:])
	if v := e.VerdictPacket(In, "", buf, time.Now()); v != Block {
		t.Fatal("packet to 8080 not blocked")
	}
	// Malformed packet is blocked.
	if v := e.VerdictPacket(In, "", buf[:10], time.Now()); v != Block {
		t.Fatal("truncated packet passed")
	}
}

func TestPerInterfaceRules(t *testing.T) {
	// Policy differs per NIC: eth0 faces the world (block inbound 8080),
	// eth1 is the trusted wire (pass everything).
	e := New(0)
	e.AddRule(Rule{Action: Block, Dir: In, Proto: netpkt.ProtoTCP, DstPort: 8080, Iface: "eth0"})
	now := time.Now()
	f := tcpFlow(evil, hostA, 999, 8080)
	if v := e.Verdict(In, "eth0", f, 0, now); v != Block {
		t.Fatal("eth0 rule did not block on eth0")
	}
	if v := e.Verdict(In, "eth1", f, 0, now); v != Pass {
		t.Fatal("eth0-scoped rule blocked traffic on eth1")
	}
	// Empty Iface keeps the pre-multi-NIC wildcard semantics.
	e2 := New(0)
	e2.AddRule(Rule{Action: Block, Dir: In, Proto: netpkt.ProtoTCP, DstPort: 8080})
	if v := e2.Verdict(In, "eth1", f, 0, now); v != Block {
		t.Fatal("wildcard-interface rule did not match")
	}
}

func TestConntrackRecordsInterface(t *testing.T) {
	e := New(0)
	now := time.Now()
	out := tcpFlow(hostA, hostB, 40000, 80)
	e.Verdict(Out, "eth0", out, netpkt.TCPSyn, now)
	if ifc, ok := e.StateIface(out); !ok || ifc != "eth0" {
		t.Fatalf("state iface = %q/%v, want eth0", ifc, ok)
	}
	// A state hit on another interface (failover) re-stamps the entry
	// instead of blocking or duplicating the flow.
	if v := e.Verdict(In, "eth1", out.reverse(), netpkt.TCPAck, now); v != Pass {
		t.Fatal("failover traffic blocked by conntrack")
	}
	if ifc, _ := e.StateIface(out); ifc != "eth1" {
		t.Fatalf("state iface after failover = %q, want eth1", ifc)
	}
	if len(e.state) != 1 {
		t.Fatalf("states = %d, want 1", len(e.state))
	}
}

func TestRulesSaveLoadRoundTrip(t *testing.T) {
	e := New(0)
	for i := 0; i < 10; i++ {
		e.AddRule(Rule{Action: Block, Dir: In, Proto: netpkt.ProtoTCP, DstPort: uint16(1000 + i), Quick: i%2 == 0})
	}
	e.AddRule(Rule{Action: Pass, Dir: Out, Src: hostA, SrcBits: 24, Dst: hostB, DstBits: 32, SrcPort: 7, Iface: "eth1"})
	blob := e.SaveRules()
	e2 := New(0)
	if err := e2.LoadRules(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e2.rules, e.rules) {
		t.Fatalf("rules = %+v, want %+v", e2.rules, e.rules)
	}
	now := time.Now()
	if v := e2.Verdict(In, "", tcpFlow(evil, hostA, 1, 1003), 0, now); v != Block {
		t.Fatal("restored rules not effective")
	}
	// A rule set cut anywhere is refused and the rules in force stay.
	for n := 0; n < len(blob); n++ {
		if err := e2.LoadRules(blob[:n]); err == nil || len(e2.rules) != len(e.rules) {
			t.Fatalf("prefix %d/%d: LoadRules = %v, %d rules in force", n, len(blob), err, len(e2.rules))
		}
	}
}

// FuzzLoadRules: any outcome but a panic or a hang is fine, and what does
// load survives another save and load unchanged (not byte-identical: any
// non-zero byte reads as a true Quick).
func FuzzLoadRules(f *testing.F) {
	e := New(0)
	f.Add(e.SaveRules())
	e.AddRule(Rule{Action: Block, Dir: In, Proto: netpkt.ProtoTCP, DstPort: 22, Quick: true})
	e.AddRule(Rule{Action: Pass, Dir: Out, Src: hostA, SrcBits: 24, Iface: "eth1"})
	f.Add(e.SaveRules())
	f.Fuzz(func(t *testing.T, blob []byte) {
		e, again := New(0), New(0)
		if e.LoadRules(blob) != nil {
			return
		}
		if err := again.LoadRules(e.SaveRules()); err != nil || !reflect.DeepEqual(again.rules, e.rules) {
			t.Fatalf("%x loaded as %+v, which saves and loads as %+v, %v", blob, e.rules, again.rules, err)
		}
	})
}

// TestFlowDumpRebuildsConntrack: the flows a transport parks in storage,
// read back by a new PF incarnation, keep established return traffic
// flowing (paper §V "does not become disconnected when the packet filter
// crashes").
func TestFlowDumpRebuildsConntrack(t *testing.T) {
	flows := []Flow{tcpFlow(hostA, hostB, 5000, 80), {Proto: netpkt.ProtoUDP, Src: hostA, Dst: evil, SrcPort: 53, DstPort: 5353}}
	got, err := DecodeFlows(EncodeFlows(flows))
	if err != nil || !reflect.DeepEqual(got, flows) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, flows)
	}
	now := time.Now()
	e := New(0)
	e.AddRule(Rule{Action: Block, Dir: In})
	e.RestoreStates(got, now)
	if v := e.Verdict(In, "", tcpFlow(hostB, hostA, 80, 5000), netpkt.TCPAck, now); v != Pass {
		t.Fatal("restored state not effective")
	}
	if empty, err := DecodeFlows(EncodeFlows(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty dump = %+v, %v", empty, err)
	}
	// A dump cut anywhere is refused, not half-read.
	dump := EncodeFlows(flows)
	for n := 0; n < len(dump); n++ {
		if got, err := DecodeFlows(dump[:n]); err == nil {
			t.Fatalf("prefix %d/%d decoded to %+v", n, len(dump), got)
		}
	}
}

// FuzzDecodeFlows: any outcome but a panic or a hang is fine, and what does
// decode encodes back to the same bytes.
func FuzzDecodeFlows(f *testing.F) {
	f.Add(EncodeFlows(nil))
	f.Add(EncodeFlows([]Flow{tcpFlow(hostA, hostB, 5000, 80), tcpFlow(evil, hostA, 1, 2)}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		if flows, err := DecodeFlows(blob); err == nil && !bytes.Equal(EncodeFlows(flows), blob) {
			t.Fatalf("%x decoded to %+v, which encodes differently", blob, flows)
		}
	})
}

// Property: verdict is deterministic — same rules, same flow, same result;
// and Block/Pass partition is stable under rule-preserving re-evaluation.
func TestQuickVerdictDeterministic(t *testing.T) {
	prop := func(dstPort uint16, blockEven bool) bool {
		e := New(0)
		if blockEven {
			e.AddRule(Rule{Action: Block, Dir: In})
			e.AddRule(Rule{Action: Pass, Dir: In, DstPort: 443})
		}
		f := tcpFlow(evil, hostA, 1, dstPort)
		now := time.Now()
		v1 := e.Verdict(In, "", f, 0, now)
		v2 := e.Verdict(In, "", f, 0, now)
		if v1 != v2 {
			return false
		}
		if !blockEven {
			return v1 == Pass
		}
		if dstPort == 443 {
			return v1 == Pass
		}
		return v1 == Block
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoMatchesFullScan: the memoised rule verdict equals a full scan,
// over random rule sets and random packets with rule changes — AddRule,
// Flush, LoadRules — interleaved. Most packets are a
// few hot keys (flow, direction, interface), so the memo hits; some are a
// hot flow in another direction or on another interface, which lands on
// the entry a hot key holds; the rest come from more flows than the memo
// has entries, so entries collide. The full scan is a twin engine's, fed
// the same rule changes and packets, whose memo is emptied before every
// lookup: verdicts, conntrack and Stats must not tell the two apart.
func TestMemoMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := rng.Intn
	addrs := []netpkt.IPAddr{hostA, hostB, evil, netpkt.MustIP("10.0.1.7")}
	ports := []uint16{0, 22, 80, 443}
	ifaces := []string{"", "eth0", "eth1"}
	rule := func() Rule {
		return Rule{
			Action: Action(1 + pick(2)), Dir: Dir(pick(4)), Proto: []uint8{0, netpkt.ProtoTCP, netpkt.ProtoUDP}[pick(3)],
			Src: addrs[pick(4)], SrcBits: []int{0, 24, 32}[pick(3)],
			Dst: addrs[pick(4)], DstBits: []int{0, 24, 32}[pick(3)],
			SrcPort: ports[pick(4)], DstPort: ports[pick(4)],
			Quick: pick(4) == 0, Iface: ifaces[pick(3)],
		}
	}
	flow := func() Flow {
		return Flow{
			Proto: []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP}[pick(3)],
			Src:   addrs[pick(4)], Dst: addrs[pick(4)],
			SrcPort: uint16(pick(1 << 16)), DstPort: ports[pick(4)],
		}
	}
	const hot = 8
	var flows []Flow
	for len(flows) < hot+2*memoSize {
		flows = append(flows, flow())
	}
	type key struct {
		dir   Dir
		iface string
	}
	var hotKeys [hot]key
	for i := range hotKeys {
		hotKeys[i] = key{Dir(1 + pick(2)), ifaces[pick(3)]}
	}
	memo, twin := New(0), New(0)
	now := time.Now()
	hits, collisions := 0, 0
	for step := 0; step < 50000; step++ {
		switch op := pick(200); {
		case op < 2:
			r := rule()
			memo.AddRule(r)
			twin.AddRule(r)
		case op == 2:
			memo.Flush()
			twin.Flush()
		case op == 3:
			other := New(0)
			for i := pick(8); i > 0; i-- {
				other.AddRule(rule())
			}
			if err := memo.LoadRules(other.SaveRules()); err != nil {
				t.Fatal(err)
			}
			if err := twin.LoadRules(other.SaveRules()); err != nil {
				t.Fatal(err)
			}
		default:
			f, dir, iface := flows[pick(len(flows))], Dir(1+pick(2)), ifaces[pick(3)]
			switch i := pick(hot); pick(10) {
			case 0, 1, 2, 3, 4, 5:
				f, dir, iface = flows[i], hotKeys[i].dir, hotKeys[i].iface
			case 6, 7:
				f = flows[i]
			}
			m := &memo.memo[memoSlot(f)]
			if m.gen == memo.rulesGen {
				if m.flow == f && m.dir == dir && m.iface == iface {
					hits++
				} else {
					collisions++
				}
			}
			twin.rulesGen++ // the twin scans every packet
			if got, want := memo.ruleVerdict(dir, iface, f), twin.ruleVerdict(dir, iface, f); got != want {
				t.Fatalf("step %d: memoised verdict %v, full scan %v for %+v %v %q", step, got, want, f, dir, iface)
			}
			twin.rulesGen++
			now = now.Add(time.Duration(pick(3)) * time.Minute)
			flags := []uint8{0, netpkt.TCPSyn, netpkt.TCPAck}[pick(3)]
			if got, want := memo.Verdict(dir, iface, f, flags, now), twin.Verdict(dir, iface, f, flags, now); got != want {
				t.Fatalf("step %d: Verdict %v, twin's %v for %+v %v %q", step, got, want, f, dir, iface)
			}
		}
	}
	if memo.Stats() != twin.Stats() || !reflect.DeepEqual(memo.state, twin.state) {
		t.Fatalf("stats %+v, twin's %+v; %d states, twin's %d", memo.Stats(), twin.Stats(), len(memo.state), len(twin.state))
	}
	if hits < 1000 || collisions < 1000 {
		t.Fatalf("%d memo hits and %d collisions: the packets do not exercise the memo", hits, collisions)
	}
	t.Logf("%d memo hits, %d collisions", hits, collisions)
}

// BenchmarkVerdict1024Rules repeats one flow, so after the first packet it
// measures a memo hit, not the scan.
func BenchmarkVerdict1024Rules(b *testing.B) {
	// The Figure 5 configuration: PF recovering/evaluating 1024 rules.
	e := New(0)
	for i := 0; i < 1024; i++ {
		e.AddRule(Rule{
			Action: Block, Dir: In, Proto: netpkt.ProtoTCP,
			DstPort: uint16(10000 + i), Quick: false,
		})
	}
	f := tcpFlow(hostB, hostA, 1234, 80)
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Verdict(In, "", f, netpkt.TCPAck, now)
	}
}

func BenchmarkStateHit(b *testing.B) {
	e := New(0)
	now := time.Now()
	f := tcpFlow(hostA, hostB, 1, 2)
	e.Verdict(Out, "", f, netpkt.TCPSyn, now)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Verdict(In, "", f.reverse(), 0, now)
	}
}

// TestVerdictAllocatesNothing pins a packet verdict at zero allocations,
// through VerdictPacket on a rule set like the benchmark's (64 block rules
// no packet matches, then a pass rule): a memo hit, and a full scan of the
// 65 rules with the memo emptied first. A verdict runs once per packet
// crossing PF; formatting a string on that path shows here.
func TestVerdictAllocatesNothing(t *testing.T) {
	e := New(0)
	for i := 0; i < 64; i++ {
		e.AddRule(Rule{Action: Block, Dir: AnyDir, Dst: netpkt.IPAddr{192, 0, 2, byte(i)}, DstBits: 32, DstPort: uint16(1 + i)})
	}
	e.AddRule(Rule{Action: Pass, Dir: AnyDir})
	tcp := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Flags: netpkt.TCPAck}
	pkt := make([]byte, netpkt.IPv4HeaderLen+tcp.MarshalLen())
	ip := netpkt.IPv4Header{TotalLen: uint16(len(pkt)), TTL: 64, Proto: netpkt.ProtoTCP, Src: hostB, Dst: hostA}
	ip.Marshal(pkt, true)
	tcp.Marshal(pkt[netpkt.IPv4HeaderLen:])
	now := time.Unix(1_000_000, 0)
	for _, c := range []struct {
		name string
		prep func()
	}{
		{"memo hit", func() {}},
		{"full scan", func() { e.rulesGen++ }},
	} {
		verdict := func() {
			c.prep()
			if e.VerdictPacket(In, "eth0", pkt, now) != Pass {
				t.Fatal("packet blocked")
			}
		}
		verdict()
		if got := testing.AllocsPerRun(100, verdict); got != 0 {
			t.Errorf("%s: %.1f allocations per verdict, want 0", c.name, got)
		}
	}
	if st := e.Stats(); st.StateHits != 0 {
		t.Fatalf("%d conntrack hits: the verdicts skipped the rules", st.StateHits)
	}
}
