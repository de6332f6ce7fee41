package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"newtos/internal/faults"
	"newtos/internal/msg"
	"newtos/internal/nic"
	"newtos/internal/shm"
	"newtos/internal/sock"
	"newtos/internal/sockbuf"
	"newtos/internal/tcpeng"
	"newtos/internal/tcpsrv"
	"newtos/internal/udpsrv"
)

// udpEchoOn starts a blocking UDP echo service on node B.
func udpEchoOn(t *testing.T, lan *LAN, name string, port uint16) {
	t.Helper()
	cli, err := sock.NewClient(lan.B.Hub, name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(port); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			n, ip, sport, err := s.RecvFrom(buf)
			if err != nil {
				return
			}
			if _, err := s.SendTo(buf[:n], ip, sport); err != nil {
				return
			}
		}
	}()
}

// TestSockNonblockAndDeadlines is the table of user-visible semantics the
// redesign promises: ErrWouldBlock in nonblocking mode, ErrTimeout on
// deadline expiry (including deadlines overriding CallTimeout = 0 =
// forever), and normal completion once the bound is cleared.
func TestSockNonblockAndDeadlines(t *testing.T) {
	lan := testLAN(t, nil)
	cli, err := sock.NewClient(lan.A.Hub, "dlcli")
	if err != nil {
		t.Fatal(err)
	}
	// CallTimeout 0 is documented as "forever": it must not impose a
	// hidden cap, and per-socket deadlines must still bound operations.
	cli.CallTimeout = 0

	s, err := cli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(33000); err != nil {
		t.Fatal(err)
	}

	t.Run("nonblock-recv-wouldblock", func(t *testing.T) {
		s.SetNonblock(true)
		defer s.SetNonblock(false)
		if _, err := s.Recv(make([]byte, 64)); !errors.Is(err, sock.ErrWouldBlock) {
			t.Fatalf("nonblocking recv on idle socket: %v, want ErrWouldBlock", err)
		}
	})

	t.Run("deadline-expires", func(t *testing.T) {
		start := time.Now()
		if err := s.SetReadDeadline(start.Add(80 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		_, err := s.Recv(make([]byte, 64))
		elapsed := time.Since(start)
		if !errors.Is(err, sock.ErrTimeout) {
			t.Fatalf("recv past deadline: %v, want ErrTimeout", err)
		}
		if elapsed < 40*time.Millisecond || elapsed > 5*time.Second {
			t.Fatalf("deadline fired after %v, want ~80ms", elapsed)
		}
	})

	t.Run("deadline-in-past", func(t *testing.T) {
		if err := s.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recv(make([]byte, 64)); !errors.Is(err, sock.ErrTimeout) {
			t.Fatalf("recv with past deadline: %v, want ErrTimeout", err)
		}
	})

	t.Run("timeout-is-net-error", func(t *testing.T) {
		type timeouter interface{ Timeout() bool }
		var te timeouter
		if !errors.As(sock.ErrTimeout, &te) || !te.Timeout() {
			t.Fatal("ErrTimeout must satisfy net.Error's Timeout() for stdlib interop")
		}
	})

	t.Run("cleared-deadline-completes", func(t *testing.T) {
		udpEchoOn(t, lan, "dlecho", 7)
		if err := s.SetDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SendTo([]byte("ping"), lan.IPOf("b", 0), 7); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, err := s.Recv(buf)
		if err != nil || string(buf[:n]) != "ping" {
			t.Fatalf("echo after clearing deadline: %q, %v", buf[:n], err)
		}
	})

	t.Run("connect-retry-after-refused", func(t *testing.T) {
		// A failed connect must be retryable on the same socket (the
		// classic wait-for-the-server-to-come-up loop): the sticky
		// failure status read-clears, and the next connect re-dials.
		c, err := cli.Socket(sock.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Connect(lan.IPOf("b", 0), 7199); !errors.Is(err, sock.ErrRefused) {
			t.Fatalf("connect with no listener: %v, want ErrRefused", err)
		}
		srvCli, err := sock.NewClient(lan.B.Hub, "lateserver")
		if err != nil {
			t.Fatal(err)
		}
		l, err := srvCli.Socket(sock.TCP)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Bind(7199); err != nil {
			t.Fatal(err)
		}
		if err := l.Listen(1); err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(lan.IPOf("b", 0), 7199); err != nil {
			t.Fatalf("connect retry after the server came up: %v", err)
		}
	})

	t.Run("tcp-nonblock-connect-inprogress", func(t *testing.T) {
		// A nonblocking connect reports ErrWouldBlock (in progress) and a
		// later poll completes it — the EINPROGRESS idiom.
		srvCli, err := sock.NewClient(lan.B.Hub, "dlsrv")
		if err != nil {
			t.Fatal(err)
		}
		l, err := srvCli.Socket(sock.TCP)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Bind(7200); err != nil {
			t.Fatal(err)
		}
		if err := l.Listen(4); err != nil {
			t.Fatal(err)
		}
		go func() {
			if c, err := l.Accept(); err == nil {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Recv(buf)
					if err != nil || n == 0 {
						return
					}
					if _, err := c.Send(buf[:n]); err != nil {
						return
					}
				}
			}
		}()
		c, err := cli.Socket(sock.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetNonblock(true)
		err = c.Connect(lan.IPOf("b", 0), 7200)
		if err != nil && !errors.Is(err, sock.ErrWouldBlock) {
			t.Fatalf("nonblocking connect: %v", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for errors.Is(err, sock.ErrWouldBlock) {
			if time.Now().After(deadline) {
				t.Fatal("connect never completed")
			}
			time.Sleep(2 * time.Millisecond)
			err = c.Connect(lan.IPOf("b", 0), 7200)
		}
		if err != nil {
			t.Fatalf("connect completion: %v", err)
		}
		if c.LocalPort() == 0 {
			t.Fatal("completed connect did not learn its local port")
		}
		// Nonblocking recv on the fresh connection would block.
		if _, err := c.Recv(make([]byte, 16)); !errors.Is(err, sock.ErrWouldBlock) {
			t.Fatalf("nonblocking recv: %v, want ErrWouldBlock", err)
		}
		// Blocking wrappers still work on the same socket after clearing.
		c.SetNonblock(false)
		if _, err := c.Send([]byte("rt")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		if n, err := c.Recv(buf); err != nil || string(buf[:n]) != "rt" {
			t.Fatalf("blocking echo on ex-nonblocking socket: %q, %v", buf[:n], err)
		}
	})
}

// TestUDPLeftoverKeepsSource is the regression test for the short-read
// datagram bug: when a datagram exceeds the caller's buffer, later reads
// of the leftover must still report the datagram's source, not a zero
// address.
func TestUDPLeftoverKeepsSource(t *testing.T) {
	lan := testLAN(t, nil)
	rcvCli, err := sock.NewClient(lan.B.Hub, "leftrcv")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rcvCli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(6000); err != nil {
		t.Fatal(err)
	}

	sndCli, err := sock.NewClient(lan.A.Hub, "leftsnd")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sndCli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(41000); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := s.SendTo(payload, lan.IPOf("b", 0), 6000); err != nil {
		t.Fatal(err)
	}

	wantIP := lan.IPOf("a", 0)
	got := 0
	for got < len(payload) {
		buf := make([]byte, 100)
		n, ip, port, err := r.RecvFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if ip != wantIP || port != 41000 {
			t.Fatalf("read at offset %d reported source %v:%d, want %v:41000 (leftover lost the datagram source)",
				got, ip, port, wantIP)
		}
		got += n
	}
}

// TestClosedUDPSocketsReleaseTheirBuffers: closing a UDP socket withdraws
// its TX buffer from the registry and drops the buffer's pool from the
// shared space, and the datagram sent just before still reaches the peer.
// The export, and then the pool, used to outlive every socket ever closed.
func TestClosedUDPSocketsReleaseTheirBuffers(t *testing.T) {
	const n = 64 // udpeng's default receive queue holds them all
	lan := testLAN(t, nil)
	sinkCli, err := sock.NewClient(lan.B.Hub, "sink")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := sinkCli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Bind(6000); err != nil {
		t.Fatal(err)
	}
	cli, err := sock.NewClient(lan.A.Hub, "churn")
	if err != nil {
		t.Fatal(err)
	}
	var pools []shm.PoolID
	for i := 0; i < n; i++ {
		s, err := cli.Socket(sock.UDP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SendTo([]byte{byte(i)}, lan.IPOf("b", 0), 6000); err != nil {
			t.Fatal(err)
		}
		keys := lan.A.Hub.Reg.Keys(udpsrv.BufKeyPfx)
		if len(keys) != 1 {
			t.Fatalf("socket %d open: %d buffers published, want 1", i, len(keys))
		}
		a, _ := lan.A.Hub.Reg.Get(keys[0])
		pools = append(pools, a.Value.(*sockbuf.Buf).Pool().ID())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if keys := lan.A.Hub.Reg.Keys(udpsrv.BufKeyPfx); len(keys) != 0 {
		t.Fatalf("%d closed sockets still published: %v", len(keys), keys)
	}
	for i, id := range pools {
		if _, err := lan.A.Hub.Space.Pool(id); err == nil {
			t.Fatalf("closed socket %d: TX buffer pool %v still mapped", i, id)
		}
	}
	seen := map[byte]bool{}
	buf := make([]byte, 16)
	for len(seen) < n {
		sink.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, _, err := sink.RecvFrom(buf); err != nil {
			t.Fatalf("%d of %d datagrams arrived: %v", len(seen), n, err)
		}
		seen[buf[0]] = true
	}
}

// TestClosedTCPSocketsAreUnpublished is the TCP twin of
// TestClosedUDPSocketsReleaseTheirBuffers: a connection whose FIN is
// acknowledged gives its TX buffer back at once — export withdrawn, pool
// dropped from the shared space, engine no longer tracking it — while its
// pcb still waits out TIME-WAIT, so Tick does not walk it for 200 ms.
func TestClosedTCPSocketsAreUnpublished(t *testing.T) {
	const k = 16
	lan, err := NewLAN(SplitTSO(), 1, nic.WireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lan.Start(); err != nil {
		t.Fatal(err)
	}
	var stop sync.Once
	t.Cleanup(func() { stop.Do(lan.Stop) })
	eng := lan.A.Proc(CompTCP).Service().(*tcpsrv.Server).Engine()

	srvCli, err := sock.NewClient(lan.B.Hub, "echo")
	if err != nil {
		t.Fatal(err)
	}
	l, err := srvCli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Bind(7100); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(k); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Recv(buf)
					if err != nil || n == 0 {
						return
					}
					if _, err := c.Send(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()

	cli, err := sock.NewClient(lan.A.Hub, "churn")
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	var pools []shm.PoolID
	for i := 0; i < k; i++ {
		s, err := cli.Socket(sock.TCP)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Connect(lan.IPOf("b", 0), 7100); err != nil {
			t.Fatalf("cycle %d: connect: %v", i, err)
		}
		if _, err := s.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("cycle %d: send: %v", i, err)
		}
		a, ok := lan.A.Hub.Reg.Get(tcpsrv.BufKeyPfx + fmt.Sprint(s.ID()))
		if !ok {
			t.Fatalf("cycle %d: a socket that sent publishes no buffer", i)
		}
		pools = append(pools, a.Value.(*sockbuf.Buf).Pool().ID())
		buf := make([]byte, 8)
		if n, err := s.Recv(buf); err != nil || n != 1 || buf[0] != byte(i) {
			t.Fatalf("cycle %d: echo %v %v, err %v", i, n, buf[:n], err)
		}
		ids = append(ids, s.ID())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The last FINs' ACKs are a round trip behind the Close replies.
	for end := time.Now().Add(2 * time.Second); len(lan.A.Hub.Reg.Keys(tcpsrv.BufKeyPfx)) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("closed sockets still published: %v", lan.A.Hub.Reg.Keys(tcpsrv.BufKeyPfx))
		}
	}
	for i, id := range pools {
		if _, err := lan.A.Hub.Space.Pool(id); err == nil {
			t.Fatalf("closed socket %d: TX buffer pool %v still mapped", i, id)
		}
	}
	// Stopping freezes the engine: the pcbs still waiting out TIME-WAIT
	// show that the buffers went before the pcbs did.
	stop.Do(lan.Stop)
	closing := 0
	for _, id := range ids {
		if st, ok := eng.SocketState(id); ok && (st == tcpeng.StateTimeWait || st == tcpeng.StateFinWait2) {
			closing++
		}
	}
	if closing == 0 {
		t.Fatal("no client socket was still closing once its buffer was gone: the buffers went with the pcbs")
	}
	if n := eng.NumBuffers(); n != 0 {
		t.Fatalf("engine tracks %d buffers with %d client sockets closing", n, closing)
	}
}

// TestSockConcurrentClient hammers ONE Client from many goroutines —
// parallel Send/Recv across sockets plus concurrent socket churn — the
// concurrency contract the pump/waiter/event plumbing must keep under
// -race.
func TestSockConcurrentClient(t *testing.T) {
	lan := testLAN(t, nil)
	const nSocks = 12
	const rounds = 15

	for i := 0; i < nSocks; i++ {
		udpEchoOn(t, lan, fmt.Sprintf("ccecho%d", i), uint16(6100+i))
	}
	cli, err := sock.NewClient(lan.A.Hub, "cccli")
	if err != nil {
		t.Fatal(err)
	}
	cli.CallTimeout = 30 * time.Second

	var wg sync.WaitGroup
	errCh := make(chan error, nSocks*2)
	for i := 0; i < nSocks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := cli.Socket(sock.UDP)
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			if err := s.Bind(uint16(42000 + i)); err != nil {
				errCh <- err
				return
			}
			msgBuf := []byte(fmt.Sprintf("sock-%d", i))
			buf := make([]byte, 256)
			for r := 0; r < rounds; r++ {
				if _, err := s.SendTo(msgBuf, lan.IPOf("b", 0), uint16(6100+i)); err != nil {
					errCh <- fmt.Errorf("sock %d send: %w", i, err)
					return
				}
				n, err := s.Recv(buf)
				if err != nil {
					errCh <- fmt.Errorf("sock %d recv: %w", i, err)
					return
				}
				if string(buf[:n]) != string(msgBuf) {
					errCh <- fmt.Errorf("sock %d: echo %q", i, buf[:n])
					return
				}
			}
		}(i)
	}
	// Concurrent churn: create/close sockets on the same client while the
	// echoes run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s, err := cli.Socket(sock.TCP)
			if err != nil {
				errCh <- err
				return
			}
			if err := s.Close(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestPollerTCPRestartRecovery is the recovery regression of the
// event-driven API: a poller parked on a socket whose TCP server crashes
// must be woken by the frontdoor's re-announced EvError edge — never left
// waiting on an edge the dead incarnation swallowed — and the next
// operation must surface the failure.
func TestPollerTCPRestartRecovery(t *testing.T) {
	lan := testLAN(t, nil)
	ready, done := make(chan struct{}), make(chan error, 1)
	go echoServer(t, lan, 7700, ready, done)
	<-ready
	bIP := lan.IPOf("b", 0)

	cli, err := sock.NewClient(lan.A.Hub, "pollcli")
	if err != nil {
		t.Fatal(err)
	}
	cli.CallTimeout = 20 * time.Second

	s, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(bIP, 7700); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}

	s.SetNonblock(true)
	p := cli.NewPoller()
	if err := p.Add(s, msg.EvReadable|msg.EvError); err != nil {
		t.Fatal(err)
	}
	for { // drain edges from the warmup (edge-triggered arm is sticky)
		evs, err := p.Wait(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			break
		}
	}

	// Crash TCP on the CLIENT node: every edge in flight for this socket
	// dies with it.
	proc := lan.A.Proc(CompTCP)
	before := len(lan.A.Monitor.Events())
	proc.Fault().Arm(faults.Crash)
	deadline := time.Now().Add(5 * time.Second)
	for len(lan.A.Monitor.Events()) <= before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(lan.A.Monitor.Events()) <= before {
		t.Fatal("tcp never recovered")
	}

	// The poller must wake on the re-announced edge.
	evs, err := p.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var bits uint64
	for _, e := range evs {
		if e.Sock == s {
			bits |= e.Bits
		}
	}
	if bits&msg.EvError == 0 {
		t.Fatalf("poller woke with bits %#x, want EvError re-announcement after tcp crash", bits)
	}
	// The socket is genuinely dead: the next op reports it (anything but
	// "would block", which would send the app back to a poll that can
	// never fire).
	if _, err := s.Recv(make([]byte, 64)); err == nil || errors.Is(err, sock.ErrWouldBlock) {
		t.Fatalf("recv on a socket of the crashed tcp: %v, want a hard error", err)
	}
}

// TestSyscallServerCrashKeepsSubscriptions: the SYSCALL server's
// subscription table is parked in storage, so after its crash readiness
// edges still reach the applications that armed them. A parked poller and
// a goroutine blocked in Recv both wake on the data's edge, at stack speed;
// nothing else could wake the Recv, which has no deadline.
func TestSyscallServerCrashKeepsSubscriptions(t *testing.T) {
	lan := testLAN(t, nil)
	aIP := lan.IPOf("a", 0)

	// Node B: a listener whose accepted connection the test writes to, and
	// a UDP socket to send from.
	srv, err := sock.NewClient(lan.B.Hub, "srv")
	if err != nil {
		t.Fatal(err)
	}
	l, err := srv.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Bind(7800); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(4); err != nil {
		t.Fatal(err)
	}
	bu, err := srv.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}

	// Node A: a bound UDP socket under a poller and a TCP connection with a
	// goroutine blocked in Recv.
	cli, err := sock.NewClient(lan.A.Hub, "cli")
	if err != nil {
		t.Fatal(err)
	}
	cli.CallTimeout = 2 * time.Second
	u, err := cli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Bind(5800); err != nil {
		t.Fatal(err)
	}
	u.SetNonblock(true)
	p := cli.NewPoller()
	if err := p.Add(u, msg.EvReadable); err != nil {
		t.Fatal(err)
	}
	c, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(lan.IPOf("b", 0), 7800); err != nil {
		t.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	tcpGot := make(chan time.Time, 1)
	go func() {
		buf := make([]byte, 64)
		for {
			n, err := c.Recv(buf)
			if errors.Is(err, sock.ErrClosed) {
				return
			}
			if err == nil && n > 0 {
				tcpGot <- time.Now()
				return
			}
			time.Sleep(time.Millisecond) // a call lost with the crashed server
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the Recv park on its readiness edge

	crashAndRecover(t, lan.A, CompSC)
	time.Sleep(20 * time.Millisecond) // the new incarnation's re-announced edges land
	for {                             // consume them: nothing is readable yet
		evs, err := p.Wait(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			break
		}
	}
	if _, _, _, err := u.RecvFrom(make([]byte, 64)); !errors.Is(err, sock.ErrWouldBlock) {
		t.Fatalf("recv on the empty socket after the crash: %v, want ErrWouldBlock", err)
	}

	sent := time.Now()
	if _, err := bu.SendTo([]byte("dgram"), aIP, 5800); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Send([]byte("stream")); err != nil {
		t.Fatal(err)
	}
	const bound = 100 * time.Millisecond // many stack round trips
	buf := make([]byte, 64)
	for got := false; !got; {
		var evs []sock.Event
		if left := bound - time.Since(sent); left > 0 { // Wait(<0) would wait forever
			if evs, err = p.Wait(left); err != nil {
				t.Fatal(err)
			}
		}
		if len(evs) == 0 {
			t.Fatalf("poller not woken within %v of the datagram", bound)
		}
		n, _, _, err := u.RecvFrom(buf)
		if err != nil && !errors.Is(err, sock.ErrWouldBlock) {
			t.Fatal(err)
		}
		got = err == nil && string(buf[:n]) == "dgram"
	}
	select {
	case at := <-tcpGot:
		if d := at.Sub(sent); d > bound {
			t.Fatalf("blocked Recv woke %v after the data was sent, want under %v", d, bound)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Recv never woke")
	}
	if _, _, _, err := u.RecvFrom(buf); !errors.Is(err, sock.ErrWouldBlock) {
		t.Fatalf("recv on the drained socket: %v, want ErrWouldBlock", err)
	}
}
