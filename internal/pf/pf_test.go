package pf

import (
	"testing"
	"testing/quick"
	"time"

	"newtos/internal/channel"
	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/wiring"
)

func TestPackUnpackRule(t *testing.T) {
	rules := []pfeng.Rule{
		{Action: pfeng.Block, Dir: pfeng.In, Proto: netpkt.ProtoTCP, DstPort: 22, Quick: true},
		{Action: pfeng.Pass, Dir: pfeng.Out, Proto: netpkt.ProtoUDP, SrcPort: 53},
		{Action: pfeng.Block, Dir: pfeng.AnyDir,
			Src: netpkt.MustIP("192.168.0.0"), SrcBits: 16,
			Dst: netpkt.MustIP("10.1.2.3"), DstBits: 32},
		{Action: pfeng.Block, Dir: pfeng.In, Proto: netpkt.ProtoTCP, DstPort: 8080, Iface: "eth0"},
		{Action: pfeng.Pass, Dir: pfeng.AnyDir, Iface: "eth15", Quick: true},
	}
	for i, r := range rules {
		req, err := PackRule(r)
		if err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		if got := UnpackRule(req); got != r {
			t.Fatalf("rule %d: got %+v want %+v", i, got, r)
		}
	}
	// Names the encoding cannot carry are rejected loudly — a truncated
	// name would never match the full name verdict queries carry, turning
	// a block rule into a silent no-op.
	if _, err := PackRule(pfeng.Rule{Action: pfeng.Block, Iface: "wlp2s0"}); err == nil {
		t.Fatal("over-long rule iface accepted")
	}
}

// Property: pack/unpack is the identity over the rule space.
func TestQuickPackUnpack(t *testing.T) {
	prop := func(action, dir uint8, proto uint8, src, dst uint32, sb, db uint8, sp, dp uint16, quick bool, ifn uint8) bool {
		r := pfeng.Rule{
			Action:  pfeng.Action(action%2 + 1),
			Dir:     pfeng.Dir(dir%3 + 1),
			Proto:   proto,
			Src:     netpkt.IPFromU32(src),
			SrcBits: int(sb % 33),
			Dst:     netpkt.IPFromU32(dst),
			DstBits: int(db % 33),
			SrcPort: sp, DstPort: dp, Quick: quick,
		}
		if ifn%4 != 0 {
			r.Iface = []string{"", "eth0", "eth1", "eth15"}[ifn%4]
		}
		req, err := PackRule(r)
		return err == nil && UnpackRule(req) == r
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestUnservedOpIsAnsweredInval: every op of the vocabulary the config edge
// does not serve, and one outside it, gets exactly one answer, with its ID
// and StatusErrInval, so the control call never waits for a reply that
// cannot come.
func TestUnservedOpIsAnsweredInval(t *testing.T) {
	served := map[msg.Op]bool{msg.OpPFRuleAdd: true, msg.OpPFRuleFlush: true, msg.OpPFStats: true}
	unserved := []msg.Op{0xffff}
	for op := range msg.NumOps {
		if !served[op] {
			unserved = append(unserved, op)
		}
	}
	ports := wiring.NewPorts(wiring.NewHub(kipc.New(kipc.Config{})), "pf")
	ports.Begin(channel.NewDoorbell())
	s := &Server{ports: ports, eng: pfeng.New(0), scBox: wiring.NewEdge(ports.Attach("sc-pf"))}
	for _, op := range unserved {
		s.config(msg.Req{ID: 77, Op: op, Flow: 5})
		got := s.scBox.TakeStaged()
		if len(got) != 1 || got[0].ID != 77 || got[0].Op != msg.OpSockReply || got[0].Status != msg.StatusErrInval {
			t.Errorf("%v: config edge got %+v, want one OpSockReply with ID 77 and StatusErrInval", op, got)
		}
	}
}

// TestVerdictAllocatesNothing pins a verdict query at zero allocations
// behind a rule set like the benchmark's (64 block rules no packet
// matches, then a pass rule): a memo hit, a full scan (a new flow every
// query) and queries that alternate between two interfaces. A verdict runs
// once per packet crossing PF; formatting or building a string on that
// path shows here.
func TestVerdictAllocatesNothing(t *testing.T) {
	ports := wiring.NewPorts(wiring.NewHub(kipc.New(kipc.Config{})), "pf")
	s := &Server{ports: ports, eng: pfeng.New(0), ifaces: map[uint64]string{}}
	for i := 0; i < 64; i++ {
		s.eng.AddRule(pfeng.Rule{Action: pfeng.Block, Dir: pfeng.AnyDir, Dst: netpkt.IPAddr{192, 0, 2, byte(i)}, DstBits: 32, DstPort: uint16(1 + i)})
	}
	s.eng.AddRule(pfeng.Rule{Action: pfeng.Pass, Dir: pfeng.AnyDir})
	pool, err := ports.Hub().Space.NewPool("test", 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	ptr, pkt, _ := pool.Alloc()
	tcp := netpkt.TCPHeader{SrcPort: 40000, DstPort: 9000, Flags: netpkt.TCPAck}
	n := netpkt.IPv4HeaderLen + tcp.MarshalLen()
	ip := netpkt.IPv4Header{TotalLen: uint16(n), TTL: 64, Proto: netpkt.ProtoTCP,
		Src: netpkt.MustIP("10.0.0.2"), Dst: netpkt.MustIP("10.0.0.1")}
	ip.Marshal(pkt, true)
	tcp.Marshal(pkt[netpkt.IPv4HeaderLen:])
	query := msg.Req{Op: msg.OpPFQuery, NPtr: 1, Arg: [4]uint64{0, msg.PackIfaceName("eth0")}}
	query.Ptrs[0] = ptr.Slice(0, uint32(n))
	eth1 := query
	eth1.Arg[1] = msg.PackIfaceName("eth1")
	now := time.Unix(1_000_000, 0)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"memo hit", func() { s.verdict(&query, now) }},
		{"full scan", func() {
			pkt[netpkt.IPv4HeaderLen+1]++ // the next source port: a new flow
			s.verdict(&query, now)
		}},
		{"changed interface", func() {
			s.verdict(&eth1, now)
			s.verdict(&query, now)
		}},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", c.name, got)
		}
	}
	if st := s.eng.Stats(); st.Passed == 0 || st.Blocked != 0 || st.StateHits != 0 {
		t.Fatalf("stats %+v: want every query passed by the rules", st)
	}
}
