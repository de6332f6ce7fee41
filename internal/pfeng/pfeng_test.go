package pfeng

import (
	"bytes"
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
