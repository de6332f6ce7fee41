package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

// ManyConnsOpts tunes the many-connections echo experiment.
type ManyConnsOpts struct {
	// Conns is the number of concurrent TCP connections (default 512).
	Conns int
	// Rounds is the number of echo round trips per connection (default 2).
	Rounds int
	// Payload is the echo message size in bytes (default 128).
	Payload int
	// Poller serves all connections from ONE goroutine with a sock.Poller
	// (the event-driven API); false uses classic goroutine-per-connection
	// blocking calls.
	Poller bool
}

func (o *ManyConnsOpts) fill() {
	if o.Conns == 0 {
		o.Conns = 512
	}
	if o.Rounds == 0 {
		o.Rounds = 2
	}
	if o.Payload == 0 {
		o.Payload = 128
	}
}

// ManyConnsReport is the outcome of one RunManyConns run.
type ManyConnsReport struct {
	Conns      int
	Rounds     int
	Completed  int   // connections that finished every round
	PeakActive int   // most server-side connections open at once
	Echoed     int64 // bytes echoed back by the server
	Elapsed    time.Duration
	// ServerGoroutines is how many goroutines served the connections:
	// 1 in poller mode, Conns in goroutine-per-connection mode.
	ServerGoroutines int
}

// RunManyConns drives Conns concurrent TCP echo sessions through the full
// split stack (SplitTSO two-node LAN). In poller mode a SINGLE goroutine
// owns the listener and every accepted connection, demultiplexing
// readiness events through a sock.Poller — the scalability story of the
// event-driven socket API: socket count no longer costs goroutines. The
// alternative mode is the classic goroutine-per-connection blocking server
// for comparison. Every connection must complete Rounds echo round trips;
// all connections are held open until the last one finishes, so peak
// concurrency equals Conns.
func RunManyConns(opts ManyConnsOpts) (ManyConnsReport, error) {
	opts.fill()
	rep := ManyConnsReport{Conns: opts.Conns, Rounds: opts.Rounds, ServerGoroutines: 1}
	if !opts.Poller {
		rep.ServerGoroutines = opts.Conns
	}

	cfg := core.SplitTSO()
	// This experiment measures the socket API, not hang recovery: under
	// the race detector (CI runs it with -race) every server loop is
	// slowed enough to miss the default 250 ms heartbeat, and a false
	// hang-restart mid-run aborts connections.
	cfg.HeartbeatMiss = 5 * time.Second
	b, err := newBed(cfg, 1, nic.Gigabit(), core.LANOpts{}, 60*time.Second)
	if err != nil {
		return rep, err
	}
	defer b.close()

	const port = 7000
	srv, err := b.client(b.lan.B, "manysrv")
	if err != nil {
		return rep, err
	}
	l, err := listen(srv, port, opts.Conns)
	if err != nil {
		return rep, err
	}
	var st echoStats
	if opts.Poller {
		b.pollEchoServer(srv, []*sock.Socket{l}, &st)
	} else {
		b.echoServer(l, &st)
	}

	// Clients: one shared Client, one goroutine per connection (the load
	// generator side is not under test). No connection closes before the
	// bed does, so the server really serves Conns concurrent sockets.
	cli, err := b.client(b.lan.A, "manycli")
	if err != nil {
		return rep, err
	}
	var completed atomic.Int64
	start := time.Now()
	err = b.fanOut(opts.Conns, func(i int) error {
		s, err := dial(cli, sock.TCP, b.lan.IPOf("b", 0), port)
		if err != nil {
			return fmt.Errorf("conn %d: %w", i, err)
		}
		data, buf := make([]byte, opts.Payload), make([]byte, opts.Payload)
		fillPattern(data, i)
		for r := 0; r < opts.Rounds; r++ {
			if err := echoRound(s, data, buf); err != nil {
				return fmt.Errorf("conn %d round %d: %w", i, r, err)
			}
		}
		completed.Add(1)
		return nil
	})
	rep.Elapsed = time.Since(start)
	rep.Completed = int(completed.Load())
	rep.Echoed = st.echoed.Load()
	rep.PeakActive = int(st.peak.Load())
	return rep, err
}
