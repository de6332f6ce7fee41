package experiments

import (
	"fmt"
	"testing"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
	"newtos/internal/tcpeng"
	"newtos/internal/tcpsrv"
)

// tcpEngine returns node n's current TCP engine. Its Stats are plain fields
// owned by the server loop: take the handle while the node runs, read it
// after the bed has closed.
func tcpEngine(t *testing.T, n *core.Node) *tcpeng.Engine {
	t.Helper()
	srv, ok := n.Proc(core.CompTCP).Service().(*tcpsrv.Server)
	if !ok {
		t.Fatalf("node %s: no TCP server running", n.Cfg.Name)
	}
	return srv.Engine()
}

// lossyTransfer streams total pattern bytes from A to B over one gigabit
// wire that drops frames with probability loss (seeded), verifies every byte
// at the receiver, and calls mid once, a third of the way through. It
// returns both nodes' TCP counters, read after the bed has stopped, and the
// wire's own count of what it carried and dropped.
func lossyTransfer(t *testing.T, loss float64, seed int64, total int, mid func(b *bed)) (snd, rcv tcpeng.Stats, wireSent, wireLost uint64) {
	t.Helper()
	cfg := core.SplitTSO()
	cfg.HeartbeatMiss = 5 * time.Second // the race detector is slow; a false hang-restart would kill the connection
	wcfg := nic.Gigabit()
	wcfg.LossProb, wcfg.Seed = loss, seed
	b, err := newBed(cfg, 1, wcfg, core.LANOpts{}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			b.close()
		}
	}()

	const port = 7300
	srvCli, err := b.client(b.lan.B, "lossysink")
	if err != nil {
		t.Fatal(err)
	}
	l, err := listen(srvCli, port, 4)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := b.client(b.lan.A, "lossysrc")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dial(cli, sock.TCP, b.lan.IPOf("b", 0), port)
	if err != nil {
		t.Fatal(err)
	}
	b.run(func() { // source: 64 KiB sends, then close so the sink reads EOF
		chunk := make([]byte, 64*1024)
		for off := 0; off < total; {
			n := min(len(chunk), total-off)
			fillPattern(chunk[:n], off)
			sent, err := s.Send(chunk[:n])
			if err != nil {
				b.fail(fmt.Errorf("send at %d: %w", off, err))
				return
			}
			off += sent
		}
		_ = s.Close()
	})
	third := make(chan struct{})
	done := make(chan struct{})
	b.run(func() { // sink: verify every byte, then expect EOF
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			b.fail(fmt.Errorf("accept: %w", err))
			return
		}
		buf := make([]byte, 256*1024)
		for got := 0; ; {
			n, err := conn.Recv(buf)
			if err != nil {
				b.fail(fmt.Errorf("recv after %d bytes: %w", got, err))
				return
			}
			if n == 0 {
				if got != total {
					b.fail(fmt.Errorf("EOF after %d of %d bytes", got, total))
				}
				return
			}
			for j := 0; j < n; j++ {
				if buf[j] != pattern(got+j) {
					b.fail(fmt.Errorf("stream corrupted at byte %d", got+j))
					return
				}
			}
			if got < total/3 && got+n >= total/3 {
				close(third)
			}
			got += n
		}
	})
	if mid != nil {
		select {
		case <-third:
			mid(b)
		case <-done:
		}
	}
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("transfer did not finish in 90 s")
	}
	if err := b.failure(); err != nil {
		t.Fatal(err)
	}
	a, bb := tcpEngine(t, b.lan.A), tcpEngine(t, b.lan.B)
	closed = true
	b.close()
	wireSent, wireLost, _, _ = b.lan.Wires[0].Stats()
	return a.Stats(), bb.Stats(), wireSent, wireLost
}

// TestLossyWireTransfer is TCP over an imperfect wire, end to end through
// the whole stack: byte-exact, and judged by counts rather than wall time.
// Out-of-order segments are held, not dropped; timeouts are the rare last
// resort; and the scoreboard re-sends little more than the wire lost.
//
// The bounds leave room for what does depend on the clock: a probe fires on
// a timer, so a box busy with the rest of the suite sends stray ones, each a
// segment the receiver already has (a DropsDup, or a DropsOOO when it lands
// on held data). Probes are therefore counted apart from the retransmissions
// that SACK evidence drives. SegsOut counts TSO bursts, the wire counts
// frames, so re-sent segments are held against frames lost, count to count.
// A receiver that drops out-of-order segments and a sender that resends from
// the timeout miss every one of these bounds several times over.
func TestLossyWireTransfer(t *testing.T) {
	total := 8 << 20
	if testing.Short() {
		total = 2 << 20
	}
	for _, loss := range []float64{0.01, 0.05} {
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			snd, rcv, sent, lost := lossyTransfer(t, loss, 23, total, nil)
			t.Logf("wire lost %d of %d frames; sender %+v; receiver OOOQueued %d DropsOOO %d DropsDup %d",
				lost, sent, snd, rcv.OOOQueued, rcv.DropsOOO, rcv.DropsDup)
			if lost == 0 || rcv.OOOQueued == 0 {
				t.Fatalf("the wire lost %d frames and %d segments were held: nothing was tested", lost, rcv.OOOQueued)
			}
			if rcv.DropsOOO > rcv.OOOQueued/10 {
				t.Errorf("receiver refused %d out-of-order segments and held %d", rcv.DropsOOO, rcv.OOOQueued)
			}
			if testing.Short() {
				// -short is how the suite runs under the race detector, where a
				// round trip outgrows the 20 ms RTO floor: the timer that fires
				// is then the RTO, not the probe, and it re-sends what was only
				// slow. The sender-side counts below describe the stack at speed.
				return
			}
			// A timeout is what is left when a retransmission and the probe
			// behind it are both lost.
			if maxRTOs := 4 + lost/20; snd.RTOs > maxRTOs {
				t.Errorf("%d RTOs for %d frames lost, want <= %d", snd.RTOs, lost, maxRTOs)
			}
			if snd.FastRetx < lost/4 {
				t.Errorf("%d recovery episodes on SACK evidence for %d frames lost", snd.FastRetx, lost)
			}
			if onEvidence := snd.Retransmits - snd.Probes; float64(onEvidence) > 1.5*float64(lost) {
				t.Errorf("%d segments re-sent on evidence (%d in all, %d probes), the wire lost %d frames (bound 1.5x)",
					onEvidence, snd.Retransmits, snd.Probes, lost)
			}
		})
	}
}

// TestUpgradeOnLossyWire swaps the receiving node's TCP server for a new
// incarnation mid-transfer on the 1 % wire, then the sender's: the
// reassembly queue, with its references into IP's receive pool, and the
// scoreboard ride the live-update image, so the stream stays byte-exact.
func TestUpgradeOnLossyWire(t *testing.T) {
	total := 8 << 20
	if testing.Short() {
		total = 2 << 20
	}
	_, rcv, _, lost := lossyTransfer(t, 0.01, 29, total, func(b *bed) {
		for _, n := range []*core.Node{b.lan.B, b.lan.A} {
			if _, err := n.Upgrade(core.CompTCP); err != nil {
				b.fail(fmt.Errorf("upgrade tcp on %s: %w", n.Cfg.Name, err))
				return
			}
		}
	})
	if lost == 0 || rcv.OOOQueued == 0 {
		t.Fatalf("the wire lost %d frames and %d segments were held: nothing was tested", lost, rcv.OOOQueued)
	}
}
