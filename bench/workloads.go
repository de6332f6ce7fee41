package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

// A workload is one traffic mix. All of them run on the same topology (two
// flagship nodes, one simulated gigabit wire) as a closed loop of two
// clients: each client issues its next op only after the previous one has
// completed, so a slower stack is offered less load.
type workload struct {
	name string
	op   string // what one "op" is, for ops_per_s / op_p50_us / cpu_us_per_op
	tune func(*core.Config, *nic.WireConfig)
	// start launches the servers on B and the workers on A. Workers signal
	// ready after their first verified op.
	start func(*run) error
}

// clients is the closed-loop concurrency of every workload: one per vCPU of
// the box the loads were sized on.
const clients = 2

const smallMsg = 64

// Why each workload exists is recorded in BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		// Byte-proportional work dominates; per-packet work is amortised by
		// TSO bursts and GRO.
		name: "bulk_tso", op: "one 64 KiB Send accepted by the stack",
		start: startBulk,
	},
	{
		// The same bytes, one message per MSS segment through every server:
		// per-packet cost sets the result, nic TSO does nothing.
		name: "bulk_mss", op: "one 64 KiB Send accepted by the stack",
		tune:  func(c *core.Config, _ *nic.WireConfig) { c.TSO = false },
		start: startBulk,
	},
	{
		// The only workload where tcpeng loss recovery sets the result.
		name: "bulk_loss", op: "one 64 KiB Send accepted by the stack",
		tune:  func(_ *core.Config, w *nic.WireConfig) { w.LossProb = 0.01 },
		start: startBulk,
	},
	{
		// Latency per hop with no bulk bytes: batching or pacing that holds
		// a lone message shows here as a loss.
		name: "rr_small", op: "one 64 B request-reply round trip (one TCP and one UDP client)",
		start: startRR,
	},
	{
		// Control plane; the data path does almost nothing.
		name: "conn_churn", op: "one socket-connect-echo-close cycle",
		start: startChurn,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// listenTCP opens a listening TCP socket on B. At teardown its Accept is
// woken, so a server whose client never came does not wait forever.
func listenTCP(r *run, c *sock.Client, ln *lane, port uint16) (*sock.Socket, error) {
	sp := ln.begin("sock.socket", open{})
	l, err := c.Socket(sock.TCP)
	ln.end(sp, 0)
	if err != nil {
		return nil, err
	}
	if err := l.Bind(port); err != nil {
		return nil, err
	}
	if err := l.Listen(16); err != nil {
		return nil, err
	}
	r.onStop(func() { _ = l.SetReadDeadline(past) }) // cannot fail
	return l, nil
}

// dialTCP opens a TCP socket on c and connects it to B.
func dialTCP(r *run, c *sock.Client, ln *lane, parent open, port uint16) (*sock.Socket, error) {
	sp := ln.begin("sock.socket", parent)
	s, err := c.Socket(sock.TCP)
	ln.end(sp, 0)
	if err != nil {
		return nil, err
	}
	sp = ln.begin("sock.connect", parent)
	err = s.Connect(r.lan.IPOf("b", 0), port)
	ln.end(sp, 0)
	if err != nil {
		_ = s.Close() // the connect error is the one to report
		return nil, err
	}
	return s, nil
}

func closeSock(s *sock.Socket, ln *lane, parent open) error {
	sp := ln.begin("sock.close", parent)
	err := s.Close()
	ln.end(sp, 0)
	return err
}

func sendAll(s *sock.Socket, ln *lane, parent open, p []byte) error {
	sp := ln.begin("sock.send", parent)
	n, err := s.Send(p)
	ln.end(sp, n)
	if err == nil && n != len(p) {
		err = fmt.Errorf("short send: %d of %d", n, len(p))
	}
	return err
}

// recvFull reads exactly len(p) bytes (a TCP reply may arrive in pieces).
// It returns io-style: (false, nil) on a clean EOF before the first byte.
func recvFull(s *sock.Socket, ln *lane, parent open, p []byte) (bool, error) {
	for got := 0; got < len(p); {
		sp := ln.begin("sock.recv", parent)
		n, err := s.Recv(p[got:])
		ln.end(sp, n)
		if err != nil {
			return false, err
		}
		if n == 0 {
			if got == 0 {
				return false, nil
			}
			return false, fmt.Errorf("EOF after %d of %d bytes", got, len(p))
		}
		got += n
	}
	return true, nil
}

// past is a deadline that has already expired: setting it wakes a server
// parked in Accept or Recv so it can see that the run has stopped.
var past = time.Unix(1, 0)

// startBulk runs `clients` one-way bulk connections A→B: the source writes
// 64 KiB chunks of its stamped stream as fast as the stack accepts them,
// the sink verifies what it reads.
func startBulk(r *run) error {
	for i := 0; i < clients; i++ {
		i := i
		port := r.port + uint16(i)
		pat := newPattern(r.seed, i)
		cb, err := r.client(r.lan.B, fmt.Sprintf("sink%d", i))
		if err != nil {
			return err
		}
		lnB := r.tr.lane(i)
		l, err := listenTCP(r, cb, lnB, port)
		if err != nil {
			return err
		}
		r.goServer(func() { // sink on B
			sp := lnB.begin("sock.accept", open{})
			conn, err := l.Accept()
			lnB.end(sp, 0)
			if err != nil {
				if !r.stopped() {
					r.fail(fmt.Errorf("sink accept: %w", err))
				}
				return
			}
			buf := make([]byte, 256*1024)
			var off uint64
			for {
				sp := lnB.begin("sock.recv", open{})
				n, err := conn.Recv(buf)
				lnB.end(sp, n)
				if err != nil {
					r.fail(fmt.Errorf("sink recv: %w", err))
					break
				}
				if n == 0 {
					break
				}
				if !pat.verify(buf[:n], off, r.full) {
					// The stream position is unknowable from here on.
					r.fail(fmt.Errorf("sink %d: stream mismatch in [%d,%d)", i, off, off+uint64(n)))
					break
				}
				off += uint64(n)
				r.bytes.Add(int64(n))
			}
			_ = closeSock(conn, lnB, open{}) // teardown; the stream was already judged
			_ = closeSock(l, lnB, open{})
		})
		ca, err := r.client(r.lan.A, fmt.Sprintf("src%d", i))
		if err != nil {
			return err
		}
		ca.CallTimeout = 30 * time.Second
		lnA := r.tr.lane(i)
		rec := r.recorder("")
		r.goWorker(func(ready func()) { // source on A
			s, err := dialTCP(r, ca, lnA, open{}, port)
			if err != nil {
				r.fail(fmt.Errorf("src connect: %w", err))
				return
			}
			chunk := make([]byte, chunkBytes)
			var off uint64
			for !r.stopped() {
				pat.fill(chunk, off)
				r.attempted.Add(1)
				start := time.Now()
				if err := sendAll(s, lnA, open{}, chunk); err != nil {
					r.fail(fmt.Errorf("src send: %w", err))
					break
				}
				r.record(rec, start)
				r.ops.Add(1)
				off += chunkBytes
				ready()
			}
			if err := closeSock(s, lnA, open{}); err != nil {
				r.fail(fmt.Errorf("src close: %w", err))
			}
		})
	}
	return nil
}

// startRR runs one TCP and one UDP client on A, each a closed-loop 64 B
// ping-pong against an echo server on B.
func startRR(r *run) error {
	if err := startTCPEcho(r, 0, r.port); err != nil {
		return err
	}
	return startUDPEcho(r, 1, r.port+1)
}

// echoTCPConn serves one accepted connection: echo smallMsg-byte messages
// until the peer closes.
func echoTCPConn(r *run, conn *sock.Socket, ln *lane) {
	buf := make([]byte, smallMsg)
	for {
		ok, err := recvFull(conn, ln, open{}, buf)
		if err != nil {
			r.fail(fmt.Errorf("echo recv: %w", err))
		}
		if !ok {
			break
		}
		if err := sendAll(conn, ln, open{}, buf); err != nil {
			r.fail(fmt.Errorf("echo send: %w", err))
			break
		}
	}
	if err := closeSock(conn, ln, open{}); err != nil {
		r.fail(fmt.Errorf("echo close: %w", err))
	}
}

// echoOnce does one verified request-reply on a connected TCP socket.
func echoOnce(s *sock.Socket, ln *lane, parent open, req, rep, filler []byte, seq uint64) error {
	echoPayload(req, filler, seq)
	if err := sendAll(s, ln, parent, req); err != nil {
		return err
	}
	ok, err := recvFull(s, ln, parent, rep)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("EOF instead of echo")
	}
	if !bytes.Equal(req, rep) {
		return errors.New("echo differs from request")
	}
	return nil
}

func filler(seed int64, stream int) []byte {
	f := make([]byte, smallMsg)
	rand.New(rand.NewSource(seed*7919 + int64(stream))).Read(f)
	return f
}

func startTCPEcho(r *run, id int, port uint16) error {
	cb, err := r.client(r.lan.B, fmt.Sprintf("echo-tcp%d", id))
	if err != nil {
		return err
	}
	lnB := r.tr.lane(id)
	l, err := listenTCP(r, cb, lnB, port)
	if err != nil {
		return err
	}
	r.goServer(func() {
		sp := lnB.begin("sock.accept", open{})
		conn, err := l.Accept()
		lnB.end(sp, 0)
		if err != nil {
			if !r.stopped() {
				r.fail(fmt.Errorf("echo accept: %w", err))
			}
			return
		}
		echoTCPConn(r, conn, lnB)
		_ = closeSock(l, lnB, open{}) // teardown of an idle listener
	})
	ca, err := r.client(r.lan.A, fmt.Sprintf("rr-tcp%d", id))
	if err != nil {
		return err
	}
	lnA := r.tr.lane(id)
	rec := r.recorder("tcp_rtt")
	fill := filler(r.seed, id)
	r.goWorker(func(ready func()) {
		s, err := dialTCP(r, ca, lnA, open{}, port)
		if err != nil {
			r.fail(fmt.Errorf("rr connect: %w", err))
			return
		}
		req, rep := make([]byte, smallMsg), make([]byte, smallMsg)
		for seq := uint64(0); !r.stopped(); seq++ {
			r.attempted.Add(1)
			start := time.Now()
			op := lnA.begin("rr.tcp", open{})
			err := echoOnce(s, lnA, op, req, rep, fill, seq)
			lnA.end(op, smallMsg)
			if err != nil {
				r.fail(fmt.Errorf("rr tcp: %w", err))
				break
			}
			r.record(rec, start)
			r.ops.Add(1)
			r.bytes.Add(smallMsg)
			ready()
		}
		if err := closeSock(s, lnA, open{}); err != nil {
			r.fail(fmt.Errorf("rr close: %w", err))
		}
	})
	return nil
}

func startUDPEcho(r *run, id int, port uint16) error {
	cb, err := r.client(r.lan.B, fmt.Sprintf("echo-udp%d", id))
	if err != nil {
		return err
	}
	lnB := r.tr.lane(id)
	sp := lnB.begin("sock.socket", open{})
	srv, err := cb.Socket(sock.UDP)
	lnB.end(sp, 0)
	if err != nil {
		return err
	}
	if err := srv.Bind(port); err != nil {
		return err
	}
	r.onStop(func() { _ = srv.SetReadDeadline(past) }) // cannot fail
	r.goServer(func() {
		buf := make([]byte, 2048)
		for {
			sp := lnB.begin("sock.recv", open{})
			n, ip, sport, err := srv.RecvFrom(buf)
			lnB.end(sp, n)
			if err != nil {
				if !r.stopped() {
					r.fail(fmt.Errorf("udp echo recv: %w", err))
				}
				break
			}
			sp = lnB.begin("sock.send", open{})
			_, err = srv.SendTo(buf[:n], ip, sport)
			lnB.end(sp, n)
			if err != nil {
				r.fail(fmt.Errorf("udp echo send: %w", err))
				break
			}
		}
		_ = closeSock(srv, lnB, open{}) // teardown
	})
	ca, err := r.client(r.lan.A, fmt.Sprintf("rr-udp%d", id))
	if err != nil {
		return err
	}
	lnA := r.tr.lane(id)
	rec := r.recorder("udp_rtt")
	fill := filler(r.seed, id)
	r.goWorker(func(ready func()) {
		sp := lnA.begin("sock.socket", open{})
		s, err := ca.Socket(sock.UDP)
		lnA.end(sp, 0)
		if err != nil {
			r.fail(fmt.Errorf("rr udp socket: %w", err))
			return
		}
		dst := r.lan.IPOf("b", 0)
		req, rep := make([]byte, smallMsg), make([]byte, 2048)
		for seq := uint64(0); !r.stopped(); seq++ {
			r.attempted.Add(1)
			start := time.Now()
			op := lnA.begin("rr.udp", open{})
			err := udpEchoOnce(s, lnA, op, dst, port, req, rep, fill, seq)
			lnA.end(op, smallMsg)
			if err != nil {
				// A datagram may be lost without the socket being broken.
				r.fail(fmt.Errorf("rr udp: %w", err))
				continue
			}
			r.record(rec, start)
			r.ops.Add(1)
			r.bytes.Add(smallMsg)
			ready()
		}
		if err := closeSock(s, lnA, open{}); err != nil {
			r.fail(fmt.Errorf("rr udp close: %w", err))
		}
	})
	return nil
}

// udpEchoOnce sends one datagram and waits up to a second for its echo,
// skipping stale echoes of requests that were given up on.
func udpEchoOnce(s *sock.Socket, ln *lane, parent open, dst [4]byte, port uint16, req, rep, fill []byte, seq uint64) error {
	echoPayload(req, fill, seq)
	sp := ln.begin("sock.send", parent)
	n, err := s.SendTo(req, dst, port)
	ln.end(sp, n)
	if err != nil {
		return err
	}
	if err := s.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	for {
		sp := ln.begin("sock.recv", parent)
		n, err := s.Recv(rep)
		ln.end(sp, n)
		if err != nil {
			return err
		}
		if n >= 8 && binary.LittleEndian.Uint64(rep) < seq {
			continue
		}
		if !bytes.Equal(req, rep[:n]) {
			return errors.New("echo differs from request")
		}
		return nil
	}
}

// startChurn runs `clients` workers on A that loop socket → connect → 64 B
// echo → close against one listener on B.
func startChurn(r *run) error {
	cb, err := r.client(r.lan.B, "churn-srv")
	if err != nil {
		return err
	}
	lnB := r.tr.lane(clients)
	l, err := listenTCP(r, cb, lnB, r.port)
	if err != nil {
		return err
	}
	r.goServer(func() {
		for conns := 0; ; conns++ {
			sp := lnB.begin("sock.accept", open{})
			conn, err := l.Accept()
			lnB.end(sp, 0)
			if err != nil {
				if !r.stopped() {
					r.fail(fmt.Errorf("churn accept: %w", err))
				}
				break
			}
			// At most `clients` handlers are alive at once: the workers
			// are a closed loop.
			ln := r.tr.lane(clients + 1 + conns)
			r.goServer(func() { echoTCPConn(r, conn, ln) })
		}
		_ = closeSock(l, lnB, open{}) // teardown of an idle listener
	})
	for i := 0; i < clients; i++ {
		i := i
		ca, err := r.client(r.lan.A, fmt.Sprintf("churn%d", i))
		if err != nil {
			return err
		}
		lnA := r.tr.lane(i)
		rec := r.recorder("")
		fill := filler(r.seed, i)
		r.goWorker(func(ready func()) {
			req, rep := make([]byte, smallMsg), make([]byte, smallMsg)
			for seq := uint64(0); !r.stopped(); seq++ {
				r.attempted.Add(1)
				start := time.Now()
				op := lnA.begin("churn.cycle", open{})
				err := churnOnce(r, ca, lnA, op, req, rep, fill, seq)
				lnA.end(op, smallMsg)
				if err != nil {
					r.fail(fmt.Errorf("churn %d: %w", i, err))
					continue
				}
				r.record(rec, start)
				r.ops.Add(1)
				r.bytes.Add(smallMsg)
				ready()
			}
		})
	}
	return nil
}

func churnOnce(r *run, c *sock.Client, ln *lane, op open, req, rep, fill []byte, seq uint64) error {
	s, err := dialTCP(r, c, ln, op, r.port)
	if err != nil {
		return err
	}
	if err := echoOnce(s, ln, op, req, rep, fill, seq); err != nil {
		_ = closeSock(s, ln, op) // the echo error is the one to report
		return err
	}
	return closeSock(s, ln, op)
}
