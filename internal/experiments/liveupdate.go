package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/proc"
	"newtos/internal/sock"
)

// LiveUpdateOpts tunes the zero-downtime live-update experiment.
type LiveUpdateOpts struct {
	// Conns is the number of concurrent poller-served echo connections held
	// open across the swap (default 512).
	Conns int
	// Bulk is the size of the bulk transfer that straddles the swap
	// (default 1 MiB).
	Bulk int
}

func (o *LiveUpdateOpts) fill() {
	if o.Conns == 0 {
		o.Conns = 512
	}
	if o.Bulk == 0 {
		o.Bulk = 1 << 20
	}
}

const (
	// liveRounds is the number of echo round trips per connection before
	// the swap; one more runs after it.
	liveRounds = 2
	// livePayload is the echo message size in bytes.
	livePayload = 128
)

// LiveUpdateReport is the outcome of one RunLiveUpdate run.
type LiveUpdateReport struct {
	Conns       int
	Completed   int // connections that finished every round, incl. post-swap
	Resets      int // connections that errored or saw EOF — must be 0
	BulkBytes   int64
	BulkExact   bool // bulk echo came back byte-exact
	UDPRounds   int  // UDP ping-pong rounds completed
	UDPPostSwap int  // rounds completed AFTER the UDP swap — must be > 0
	// UDPLost counts rounds retried after a shed datagram. UDP is datagram
	// service: the NIC RX ring legitimately drops under bulk load, so this
	// measures congestion, not handoff loss (the focused swap-loop tests
	// show 0 without competing load).
	UDPLost int
	// TCPPhases and UDPPhases hold the two servers' handoff phase
	// timings.
	TCPPhases proc.HandoffReport
	UDPPhases proc.HandoffReport
	Elapsed   time.Duration
}

// RunLiveUpdate measures the paper's §V deliberate-update scenario on the
// flagship split stack: the TCP server and the UDP server are live-swapped
// for new incarnations while a bulk transfer is mid-flight, Conns
// poller-served echo connections are open, and a connected-UDP ping-pong is
// running. The drain-and-handoff path must keep all of it intact: the bulk
// echo completes byte-exact, zero connections reset, zero readiness events
// are lost (every poller connection completes a post-swap round), and the
// per-component pause stays well under one RTO — against the ~1-RTO stall
// plus state loss that crash-recovery of the same components would cost.
func RunLiveUpdate(opts LiveUpdateOpts) (LiveUpdateReport, error) {
	opts.fill()
	rep := LiveUpdateReport{Conns: opts.Conns}

	cfg := core.SplitTSO()
	// Under the race detector the server loops are slow enough to miss the
	// default heartbeat, and a false hang-restart mid-swap would turn the
	// planned upgrade into crash recovery.
	cfg.HeartbeatMiss = 5 * time.Second
	b, err := newBed(cfg, 1, nic.Gigabit(), core.LANOpts{}, 60*time.Second)
	if err != nil {
		return rep, err
	}
	defer b.close()

	const (
		echoPort = 7100
		udpPort  = 7200
	)
	serverIP := b.lan.IPOf("b", 0)

	// On B: the poller echo server — ONE goroutine, every connection
	// nonblocking, the component that dies first if the swap loses a single
	// readiness edge — and a UDP echo server whose blocking RecvFrom is
	// parked in the engine across the swap.
	srv, err := b.client(b.lan.B, "liveupsrv")
	if err != nil {
		return rep, err
	}
	l, err := listen(srv, echoPort, opts.Conns+1)
	if err != nil {
		return rep, err
	}
	b.pollEchoServer(srv, []*sock.Socket{l}, new(echoStats))
	u, err := bindUDP(srv, udpPort)
	if err != nil {
		return rep, err
	}
	b.udpEchoServer(u)

	// On A: one client for the TCP load and a dedicated one for the UDP
	// pinger, which keeps its rendezvous traffic off the 512-connection
	// frontdoor channel.
	cli, err := b.client(b.lan.A, "liveupcli")
	if err != nil {
		return rep, err
	}
	udpCli, err := b.client(b.lan.A, "liveupudp")
	if err != nil {
		return rep, err
	}
	pinger, err := dial(udpCli, sock.UDP, serverIP, udpPort)
	if err != nil {
		return rep, err
	}

	var (
		completed atomic.Int64
		bulkGot   atomic.Int64
		udpRounds atomic.Int64
		udpLost   atomic.Int64
		work      sync.WaitGroup // echo connections and the bulk transfer
		ready     sync.WaitGroup // all of them in position for the swap
	)
	swapDone := make(chan struct{}) // closed after every component swapped
	swapped := sync.OnceFunc(func() { close(swapDone) })
	defer swapped() // an upgrade that fails must not strand the parked load
	start := time.Now()

	// Echo connections: Rounds round trips, then park in the server's
	// poller across the swap, then one post-swap round. That last round is
	// the lost-edge detector: it only completes if the successor's poller
	// wiring still delivers readiness. No connection closes before the bed
	// does.
	for i := 0; i < opts.Conns; i++ {
		work.Add(1)
		ready.Add(1)
		b.run(func() {
			defer work.Done()
			var parked sync.Once
			defer parked.Do(ready.Done)
			s, err := dial(cli, sock.TCP, serverIP, echoPort)
			if err != nil {
				b.fail(fmt.Errorf("conn %d: %w", i, err))
				return
			}
			data, buf := make([]byte, livePayload), make([]byte, livePayload)
			fillPattern(data, i)
			for r := 0; r <= liveRounds; r++ {
				if r == liveRounds { // the post-swap round
					parked.Do(ready.Done)
					<-swapDone
				}
				if err := echoRound(s, data, buf); err != nil {
					b.fail(fmt.Errorf("conn %d round %d: %w", i, r, err))
					return
				}
			}
			completed.Add(1)
		})
	}

	// Bulk transfer: stream Bulk bytes through the echo server and verify
	// the echo byte-exact; the swap fires while it is mid-flight.
	work.Add(1)
	ready.Add(1)
	b.run(func() {
		defer work.Done()
		var midFlight sync.Once
		defer midFlight.Do(ready.Done)
		s, err := dial(cli, sock.TCP, serverIP, echoPort)
		if err != nil {
			b.fail(fmt.Errorf("bulk: %w", err))
			return
		}
		b.run(func() { // writer: 8 KiB slabs
			chunk := make([]byte, 8192)
			for off := 0; off < opts.Bulk; {
				n := min(len(chunk), opts.Bulk-off)
				fillPattern(chunk[:n], off)
				sent, err := s.Send(chunk[:n])
				if err != nil {
					b.fail(fmt.Errorf("bulk send: %w", err))
					return
				}
				off += sent
			}
		})
		buf := make([]byte, 64*1024)
		for got := 0; got < opts.Bulk; {
			n, err := s.Recv(buf)
			if err != nil || n == 0 {
				b.fail(fmt.Errorf("bulk recv after %d bytes: %v", got, err))
				return
			}
			for j := 0; j < n; j++ {
				if buf[j] != pattern(got+j) {
					b.fail(fmt.Errorf("bulk echo corrupted at byte %d", got+j))
					return
				}
			}
			got += n
			bulkGot.Store(int64(got))
			if got >= opts.Bulk/3 {
				midFlight.Do(ready.Done) // let the swap fire
			}
		}
	})

	// Connected-UDP ping-pong, running across the UDP server swap. UDP is
	// datagram service: under bulk load the NIC RX ring can legitimately
	// shed frames (RxDropsNoBuf), so a lost round retries on a short
	// timeout — what must NOT happen is the pinger wedging or the swapped
	// server going silent (UDPRounds keeps growing after the swap).
	b.run(func() {
		ping := []byte("are you still there?")
		buf := make([]byte, len(ping))
		for !b.quiescing() {
			if !udpRound(pinger, netpkt.IPAddr{}, 0, ping, buf, 2*time.Second) {
				udpLost.Add(1)
				continue
			}
			udpRounds.Add(1)
			time.Sleep(time.Millisecond)
		}
	})

	// Everyone is in position: swap the TCP server, then the UDP server,
	// under full load.
	ready.Wait()
	if rep.TCPPhases, err = b.lan.B.Upgrade(core.CompTCP); err != nil {
		return rep, fmt.Errorf("upgrade tcp: %w", err)
	}
	if rep.UDPPhases, err = b.lan.B.Upgrade(core.CompUDP); err != nil {
		return rep, fmt.Errorf("upgrade udp: %w", err)
	}
	swapped()

	// Let the UDP pinger prove the swapped server still answers.
	deadline := time.Now().Add(10 * time.Second)
	base := udpRounds.Load()
	for udpRounds.Load() < base+3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep.UDPPostSwap = int(udpRounds.Load() - base)
	work.Wait()
	rep.Elapsed = time.Since(start)
	rep.Completed = int(completed.Load())
	rep.Resets = opts.Conns - rep.Completed
	rep.BulkBytes = bulkGot.Load()
	rep.BulkExact = rep.BulkBytes == int64(opts.Bulk)
	rep.UDPRounds = int(udpRounds.Load())
	rep.UDPLost = int(udpLost.Load())
	return rep, b.failure()
}
