package msg

import (
	"testing"

	"newtos/internal/shm"
)

func TestReplyEchoesIdentity(t *testing.T) {
	r := Req{ID: 42, Op: OpSockSend, Flow: 7}
	rep := r.Reply(OpSockReply, StatusErrAgain)
	if rep.ID != 42 || rep.Flow != 7 || rep.Op != OpSockReply || rep.Status != StatusErrAgain {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestChainHelpers(t *testing.T) {
	var r Req
	ptrs := []shm.RichPtr{
		{Pool: 1, Off: 0, Len: 100},
		{Pool: 1, Off: 200, Len: 50},
	}
	r.SetChain(ptrs)
	if r.NPtr != 2 || len(r.Chain()) != 2 {
		t.Fatalf("chain = %v", r.Chain())
	}
	if r.ChainLen() != 150 {
		t.Fatalf("ChainLen = %d", r.ChainLen())
	}
	r.SetChain(nil)
	if r.NPtr != 0 || len(r.Chain()) != 0 {
		t.Fatal("empty chain")
	}
}

func TestSetChainPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on oversized chain")
		}
	}()
	var r Req
	r.SetChain(make([]shm.RichPtr, MaxPtrs+1))
}

func TestOpStrings(t *testing.T) {
	if OpIPSend.String() != "ip-send" {
		t.Fatalf("OpIPSend = %q", OpIPSend.String())
	}
	if Op(60000).String() == "" {
		t.Fatal("unknown op has empty string")
	}
}
