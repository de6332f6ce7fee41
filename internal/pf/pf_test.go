package pf

import (
	"testing"
	"testing/quick"

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
