package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/sock"
	"newtos/internal/trace"
)

// bed is the one way this package stands up a LAN under load, and it owns
// every lifetime on it: the two nodes and their wires, each sock.Client it
// hands out, and each traffic goroutine (all of them start through run).
// close stops the traffic, closes the clients, stops the LAN and waits for
// the goroutines, so a driver that returns has left nothing running — a
// leaked pump or a responder spinning on a dead stack cannot be written.
//
// A driver is topology (newBed), traffic (the pieces below: one bulk sink,
// one bulk source, one echo server of each kind, one UDP responder, one echo
// round) and a schedule of what to crash, cut or swap and what to report.
type bed struct {
	lan         *core.LAN
	callTimeout time.Duration

	stop     chan struct{} // closed by quiesce: traffic loops leave at their next check
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	clients []*sock.Client
	err     error // first failure reported by a traffic goroutine
}

// newBed builds and boots a two-node LAN. callTimeout is the stack-health
// bound every client on the bed gets (sock.Client.CallTimeout).
func newBed(cfg core.Config, wires int, wcfg nic.WireConfig, o core.LANOpts, callTimeout time.Duration) (*bed, error) {
	lan, err := core.NewLANOpt(cfg, wires, wcfg, o)
	if err != nil {
		return nil, err
	}
	if err := lan.Start(); err != nil {
		lan.Stop()
		return nil, err
	}
	return &bed{lan: lan, callTimeout: callTimeout, stop: make(chan struct{})}, nil
}

// quiesce asks the traffic to wind down gracefully: sources close their
// connections (so sinks read EOF), responders and pingers return.
func (b *bed) quiesce() { b.stopOnce.Do(func() { close(b.stop) }) }

func (b *bed) quiescing() bool {
	select {
	case <-b.stop:
		return true
	default:
		return false
	}
}

// close tears the bed down and returns once nothing of it is running.
// Closing the clients fails every socket call parked on them, which is what
// releases goroutines blocked in Accept, Recv or a Poller.
func (b *bed) close() {
	b.quiesce()
	b.mu.Lock()
	clients := b.clients
	b.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	b.lan.Stop()
	b.wg.Wait()
}

// run starts one traffic goroutine that close will wait for.
func (b *bed) run(f func()) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		f()
	}()
}

// fail records the first failure of a traffic goroutine; errors that are
// only the bed shutting down do not count.
func (b *bed) fail(err error) {
	if b.quiescing() {
		return
	}
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// failure returns what fail recorded.
func (b *bed) failure() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// client registers an application process on node n; close closes it.
func (b *bed) client(n *core.Node, name string) (*sock.Client, error) {
	c, err := sock.NewClient(n.Hub, name)
	if err != nil {
		return nil, err
	}
	c.CallTimeout = b.callTimeout
	b.mu.Lock()
	b.clients = append(b.clients, c)
	b.mu.Unlock()
	return c, nil
}

// listen returns a TCP socket bound to port and listening: a peer may
// connect as soon as this returns.
func listen(c *sock.Client, port uint16, backlog int) (*sock.Socket, error) {
	l, err := c.Socket(sock.TCP)
	if err != nil {
		return nil, err
	}
	if err := l.Bind(port); err != nil {
		return nil, fmt.Errorf("bind tcp %d: %w", port, err)
	}
	if err := l.Listen(backlog); err != nil {
		return nil, fmt.Errorf("listen tcp %d: %w", port, err)
	}
	return l, nil
}

// bindUDP returns a UDP socket bound to port.
func bindUDP(c *sock.Client, port uint16) (*sock.Socket, error) {
	u, err := c.Socket(sock.UDP)
	if err != nil {
		return nil, err
	}
	if err := u.Bind(port); err != nil {
		return nil, fmt.Errorf("bind udp %d: %w", port, err)
	}
	return u, nil
}

// dial opens a socket connected to ip:port.
func dial(c *sock.Client, p sock.Proto, ip netpkt.IPAddr, port uint16) (*sock.Socket, error) {
	s, err := c.Socket(p)
	if err != nil {
		return nil, err
	}
	if err := s.Connect(ip, port); err != nil {
		return nil, fmt.Errorf("connect %v:%d: %w", ip, port, err)
	}
	return s, nil
}

// sink accepts one connection on l and counts what it receives into rcvd
// until EOF or error. The returned channel closes when the sink is done.
func (b *bed) sink(l *sock.Socket, rcvd *trace.Meter) <-chan struct{} {
	done := make(chan struct{})
	b.run(func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			b.fail(fmt.Errorf("sink accept: %w", err))
			return
		}
		buf := make([]byte, 256*1024)
		for {
			n, err := conn.Recv(buf)
			if err != nil || n == 0 {
				return
			}
			rcvd.Add(n)
		}
	})
	return done
}

// chunkBytes is the application write size of every bulk source.
const chunkBytes = 64 * 1024

// source writes chunkBytes sends to s, iperf-like, counting into sent, until
// the bed quiesces; it then closes s so the peer's sink reads EOF.
func (b *bed) source(s *sock.Socket, sent *trace.Meter) {
	b.run(func() {
		data := make([]byte, chunkBytes)
		for !b.quiescing() {
			n, err := s.Send(data)
			sent.Add(n)
			if err != nil {
				b.fail(fmt.Errorf("source send: %w", err))
				return
			}
		}
		_ = s.Close()
	})
}

// bulkFlow runs one bulk TCP stream from node A to node B's address on the
// given link: a sink on B behind port, a source on A, each its own
// application process. The returned channel closes when the sink has read
// EOF (after quiesce) or failed.
func (b *bed) bulkFlow(link int, port uint16, sent, rcvd *trace.Meter) (<-chan struct{}, error) {
	sinkCli, err := b.client(b.lan.B, fmt.Sprintf("sink%d", port))
	if err != nil {
		return nil, err
	}
	l, err := listen(sinkCli, port, 4)
	if err != nil {
		return nil, err
	}
	done := b.sink(l, rcvd)
	srcCli, err := b.client(b.lan.A, fmt.Sprintf("src%d", port))
	if err != nil {
		return nil, err
	}
	s, err := dial(srcCli, sock.TCP, b.lan.IPOf("b", link), port)
	if err != nil {
		return nil, err
	}
	b.source(s, sent)
	return done, nil
}

// echoStats is what an echo server reports about itself.
type echoStats struct {
	accepted atomic.Int64 // connections accepted so far
	peak     atomic.Int64 // most connections open at once
}

// opened counts one accepted connection; only the accepting goroutine
// calls it, so peak needs no compare-and-swap.
func (st *echoStats) opened(active int64) {
	st.accepted.Add(1)
	if active > st.peak.Load() {
		st.peak.Store(active)
	}
}

// echoServer is the classic blocking server: an accept loop on l and one
// goroutine per connection echoing until EOF or error.
func (b *bed) echoServer(l *sock.Socket) {
	b.run(func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			b.run(func() {
				defer conn.Close()
				buf := make([]byte, 64*1024)
				for {
					n, err := conn.Recv(buf)
					if err != nil || n == 0 {
						return
					}
					if _, err := conn.Send(buf[:n]); err != nil {
						return
					}
				}
			})
		}
	})
}

// pollEchoServer is the event-driven server: ONE goroutine owns every
// listener and every accepted connection, all in user-level nonblocking
// mode, demultiplexing readiness edges through a single sock.Poller and
// draining each edge until ErrWouldBlock — the epoll idiom over the split
// stack. It returns when every listener has closed.
func (b *bed) pollEchoServer(cli *sock.Client, listeners []*sock.Socket, st *echoStats) {
	b.run(func() {
		p := cli.NewPoller()
		defer p.Close()
		listening := make(map[*sock.Socket]bool, len(listeners))
		for _, l := range listeners {
			l.SetNonblock(true)
			if err := p.Add(l, msg.EvAcceptReady|msg.EvError); err != nil {
				return
			}
			listening[l] = true
		}
		active := int64(0)
		buf := make([]byte, 64*1024)
		// pending holds echo bytes a nonblocking send could not stage; they
		// flush on the socket's writable edge, and reads pause until the
		// backlog drains so echo order is preserved.
		pending := map[*sock.Socket][]byte{}
		closeConn := func(s *sock.Socket) {
			p.Del(s)
			delete(pending, s)
			_ = s.Close()
			active--
		}
		// write echoes what it can and queues the rest; false means the
		// connection died.
		write := func(s *sock.Socket, data []byte) bool {
			for len(data) > 0 {
				n, err := s.Send(data)
				data = data[n:]
				if errors.Is(err, sock.ErrWouldBlock) || (err == nil && len(data) > 0 && n == 0) {
					pending[s] = append(pending[s], data...)
					return true
				}
				if err != nil {
					closeConn(s)
					return false
				}
			}
			return true
		}
		for len(listening) > 0 {
			events, err := p.Wait(-1)
			if err != nil {
				return
			}
			for _, e := range events {
				s := e.Sock
				if listening[s] {
					// Drain the accept queue (edge-triggered contract).
					for {
						child, err := s.Accept()
						if errors.Is(err, sock.ErrWouldBlock) {
							break
						}
						if err != nil { // listener closed: stop serving it
							p.Del(s)
							delete(listening, s)
							break
						}
						child.SetNonblock(true)
						if err := p.Add(child, msg.EvReadable|msg.EvWritable|msg.EvEOF|msg.EvError); err != nil {
							_ = child.Close()
							continue
						}
						active++
						st.opened(active)
					}
					continue
				}
				// Flush queued echo bytes first; while a backlog remains,
				// don't read more (order), wait for the next writable edge.
				if q := pending[s]; len(q) > 0 {
					delete(pending, s)
					if !write(s, q) || len(pending[s]) > 0 {
						continue
					}
				}
				// Drain the connection until it would block; echo what we read.
				for {
					n, err := s.Recv(buf)
					if errors.Is(err, sock.ErrWouldBlock) {
						break
					}
					if err != nil || n == 0 {
						closeConn(s)
						break
					}
					if !write(s, buf[:n]) || len(pending[s]) > 0 {
						break // dead, or backpressure: resume on the writable edge
					}
				}
			}
		}
	})
}

// udpEchoServer answers every datagram arriving on u to its sender. It
// outlives errors — a timeout in a quiet spell, an abort while the UDP
// server restarts under it — and leaves only when its client closes or the
// bed quiesces.
func (b *bed) udpEchoServer(u *sock.Socket) {
	b.run(func() {
		buf := make([]byte, 2048)
		for {
			n, ip, port, err := u.RecvFrom(buf)
			if err != nil {
				if b.quiescing() || errors.Is(err, sock.ErrClosed) {
					return
				}
				time.Sleep(time.Millisecond) // a failing stack must not be hammered by its load
				continue
			}
			_, _ = u.SendTo(buf[:n], ip, port)
		}
	})
}

// pattern is the byte every test stream carries at offset off, so a
// receiver can verify a stream without keeping a copy of it.
func pattern(off int) byte { return byte(off*7 + off>>8) }

// fillPattern writes the pattern stream starting at offset off into p.
func fillPattern(p []byte, off int) {
	for i := range p {
		p[i] = pattern(off + i)
	}
}

// echoRound does one blocking send of data and reads the same number of
// bytes back into buf (len(buf) == len(data)), which must match.
func echoRound(s *sock.Socket, data, buf []byte) error {
	if _, err := s.Send(data); err != nil {
		return err
	}
	for got := 0; got < len(buf); {
		n, err := s.Recv(buf[got:])
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("unexpected EOF")
		}
		got += n
	}
	if !bytes.Equal(buf, data) {
		return errors.New("echo corrupted")
	}
	return nil
}

// udpRound sends one datagram to dst:port (zero values: the socket's
// connected peer) and waits up to timeout for the same bytes to come back.
// The read deadline is what turns a shed datagram into a retryable failure:
// a blocking RecvFrom without one waits forever.
func udpRound(s *sock.Socket, dst netpkt.IPAddr, port uint16, data, buf []byte, timeout time.Duration) bool {
	if _, err := s.SendTo(data, dst, port); err != nil {
		return false
	}
	_ = s.SetReadDeadline(time.Now().Add(timeout))
	n, _, _, err := s.RecvFrom(buf)
	return err == nil && bytes.Equal(buf[:n], data)
}
