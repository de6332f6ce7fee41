package experiments

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

// TestC100KSmoke runs the connection-scale experiment small enough for the
// default suite: a couple thousand mostly-idle connections plus an active
// echo subset, exercising the timer heap, the connection maps, ephemeral
// port reuse across listener ports, and lazy TX-buffer provisioning end
// to end through the split stack.
func TestC100KSmoke(t *testing.T) {
	conns := 2000
	if testing.Short() {
		conns = 512
	}
	rep, err := RunC100K(C100KOpts{
		Conns: conns, Ports: 4, ActiveSubset: 64, Rounds: 2,
		Baseline: 256, TickProbe: 32, TickWindow: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Established != conns {
		t.Fatalf("established %d of %d connections", rep.Established, conns)
	}
	if rep.PeakActive < conns {
		t.Fatalf("server peak %d, want %d concurrent connections", rep.PeakActive, conns)
	}
	if rep.EchoAvgRTT <= 0 {
		t.Fatal("no echo latency measured")
	}
	t.Logf("%d conns in %v (%.0f conns/sec), tick %.0f ns -> %.0f ns (x%.2f), %.0f B/conn, echo avg %v max %v",
		rep.Established, rep.ConnectElapsed.Round(time.Millisecond), rep.ConnectRate,
		rep.BaselineTickNs, rep.FullTickNs, rep.TickRatio, rep.HeapPerConn,
		rep.EchoAvgRTT, rep.EchoMaxRTT)
}

// TestC100KScaleSmoke is the gated scale run (C100K_SMOKE=1): ~10k
// connections with budget assertions on per-Tick cost and per-connection
// memory. The full 100k row lives in BenchmarkSec4_C100K / EXPERIMENTS.md.
func TestC100KScaleSmoke(t *testing.T) {
	if os.Getenv("C100K_SMOKE") == "" {
		t.Skip("set C100K_SMOKE=1 to run the ~10k-connection scale smoke")
	}
	rep, err := RunC100K(C100KOpts{Conns: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Established != rep.Conns {
		t.Fatalf("established %d of %d connections", rep.Established, rep.Conns)
	}
	// Idle connections arm no timer: per-Tick cost is set by the active
	// probe, not the idle population. 2x is the acceptance bound at 100k vs 1k;
	// allow measurement slop at this smaller scale.
	if rep.TickRatio > 2.5 {
		t.Errorf("tick cost grew x%.2f from %d to %d conns (%.0f -> %.0f ns), want <= 2.5x",
			rep.TickRatio, rep.BaselineConns, rep.Conns, rep.BaselineTickNs, rep.FullTickNs)
	}
	if rep.FullTickNs > 2e6 {
		t.Errorf("per-Tick cost %.0f ns at %d conns, want <= 2ms", rep.FullTickNs, rep.Conns)
	}
	// Whole-process bound: heap pcb + map entries + lazy (absent) TX
	// buffer on the stack side, plus BOTH app-side Socket/Poller entries.
	if rep.HeapPerConn > 64*1024 {
		t.Errorf("heap %.0f B/conn, want <= 64KiB (whole-process bound)", rep.HeapPerConn)
	}
	t.Logf("%d conns in %v (%.0f conns/sec), tick %.0f ns -> %.0f ns (x%.2f), %.0f B/conn, echo avg %v max %v",
		rep.Established, rep.ConnectElapsed.Round(time.Millisecond), rep.ConnectRate,
		rep.BaselineTickNs, rep.FullTickNs, rep.TickRatio, rep.HeapPerConn,
		rep.EchoAvgRTT, rep.EchoMaxRTT)
}

// TestConnChurnRace is the -race stress for the connection tables: churn
// workers hammer create/connect/close through the frontdoor —
// constantly adding and deleting pcbs in the id and four-tuple maps,
// recycling ephemeral ports, and leaving late replies and orphaned accept
// children behind — while echo workers keep long-lived connections busy.
// The engine side is single-threaded; what this pins down is that
// id and port reuse under concurrent app-side churn never corrupts a live
// connection: every echo must come back intact.
func TestConnChurnRace(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	cfg := core.SplitTSO()
	cfg.HeartbeatMiss = 10 * time.Second
	b, err := newBed(cfg, 1, nic.Gigabit(), core.LANOpts{}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	const port = 7300
	srvCli, err := b.client(b.lan.B, "churnsrv")
	if err != nil {
		t.Fatal(err)
	}
	l, err := listen(srvCli, port, 256)
	if err != nil {
		t.Fatal(err)
	}
	b.pollEchoServer(srvCli, []*sock.Socket{l}, new(echoStats))

	cli, err := b.client(b.lan.A, "churncli")
	if err != nil {
		t.Fatal(err)
	}
	dst := b.lan.IPOf("b", 0)

	var echoWG, churnWG sync.WaitGroup
	errCh := make(chan error, 16)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	stop := make(chan struct{})

	// Echo workers: long-lived connections whose pcbs and ports must survive
	// the churn around them.
	for w := 0; w < 4; w++ {
		echoWG.Add(1)
		go func(w int) {
			defer echoWG.Done()
			s, err := cli.Socket(sock.TCP)
			if err != nil {
				fail(err)
				return
			}
			defer s.Close()
			if err := s.Connect(dst, port); err != nil {
				fail(fmt.Errorf("echo %d connect: %w", w, err))
				return
			}
			data := make([]byte, 256)
			fillPattern(data, w)
			buf := make([]byte, len(data))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := echoRound(s, data, buf); err != nil { // verifies the echo
					fail(fmt.Errorf("echo %d round %d: %w", w, n, err))
					return
				}
			}
		}(w)
	}

	// Churn workers: create/connect/(half echo once)/close in a tight
	// loop. Closes tear down both the client socket and the server-side
	// child, deleting and re-adding pcbs and ports continuously.
	for w := 0; w < 8; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			data := make([]byte, 64)
			buf := make([]byte, 64)
			for i := 0; i < iters; i++ {
				s, err := cli.Socket(sock.TCP)
				if err != nil {
					fail(err)
					return
				}
				if err := s.Connect(dst, port); err != nil {
					fail(fmt.Errorf("churn %d iter %d connect: %w", w, i, err))
					_ = s.Close()
					return
				}
				if i%2 == 0 {
					if err := echoRound(s, data, buf); err != nil {
						fail(fmt.Errorf("churn %d iter %d: %w", w, i, err))
						_ = s.Close()
						return
					}
				}
				if err := s.Close(); err != nil && !errors.Is(err, sock.ErrWouldBlock) {
					fail(fmt.Errorf("churn %d iter %d close: %w", w, i, err))
					return
				}
			}
		}(w)
	}

	// Let churn workers finish, then release the echo workers.
	churnDone := make(chan struct{})
	go func() { churnWG.Wait(); close(churnDone) }()
	timer := time.NewTimer(90 * time.Second)
	defer timer.Stop()
	select {
	case <-churnDone:
	case err := <-errCh:
		close(stop)
		echoWG.Wait()
		t.Fatal(err)
	case <-timer.C:
		close(stop)
		t.Fatal("churn stress timed out")
	}
	close(stop)
	echoWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
