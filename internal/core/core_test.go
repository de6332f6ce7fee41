package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"newtos/internal/faults"
	"newtos/internal/ipeng"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/pfeng"
	"newtos/internal/shm"
	"newtos/internal/sock"
)

// testLAN boots a two-node LAN with the flagship configuration unless
// modified. Uncapped wires keep tests fast.
func testLAN(t *testing.T, mod func(*Config)) *LAN {
	t.Helper()
	cfg := SplitTSO()
	cfg.HeartbeatMiss = 150 * time.Millisecond
	if mod != nil {
		mod(&cfg)
	}
	lan, err := NewLAN(cfg, 1, nic.WireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lan.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkDeadlines(t, lan); checkFlushes(t, lan) })
	t.Cleanup(lan.Stop)
	return lan
}

// checkDeadlines fails the test if any member of either node was left, by
// an empty Poll, with a deadline at or before that Poll's now: its runners
// then poll it over and over until the clock moves past the deadline.
func checkDeadlines(t *testing.T, lan *LAN) {
	t.Helper()
	for _, n := range []*Node{lan.A, lan.B} {
		for name, p := range n.procs {
			if k := p.PastDeadlines(); k != 0 {
				t.Errorf("%s/%s: %d empty Polls left a deadline that was already due", n.Cfg.Name, name, k)
			}
		}
	}
}

// checkFlushes fails the test if any member of either node was left, by an
// empty Poll, with an edge holding requests pushed after its last Flush:
// nothing rings the peer for them, so they wait for an unrelated ring.
func checkFlushes(t *testing.T, lan *LAN) {
	t.Helper()
	for _, n := range []*Node{lan.A, lan.B} {
		for name, p := range n.procs {
			if k, edges := p.Unflushed(); k != 0 {
				t.Errorf("%s/%s: %d empty Polls left pushes with no Flush after them, the last on edge %s", n.Cfg.Name, name, k, strings.Join(edges, ", "))
			}
		}
	}
}

// TestIdleLANPollsOnlyOnEvents: there is no poll cap. On a two-node LAN
// with no traffic every member is polled only when its bell rings or its
// own deadline falls due, which on an idle node is almost never.
func TestIdleLANPollsOnlyOnEvents(t *testing.T) {
	lan := testLAN(t, nil)
	// Let start-up settle: link training, first saves, the monitors'
	// first sweeps.
	time.Sleep(300 * time.Millisecond)
	polls := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, n := range []*Node{lan.A, lan.B} {
			for name, p := range n.procs {
				out[n.Cfg.Name+"/"+name] = p.Polls()
			}
		}
		return out
	}
	before := polls()
	time.Sleep(200 * time.Millisecond)
	most, who := uint64(0), ""
	for name, n := range polls() {
		d := n - before[name]
		if d > 10 {
			t.Errorf("%s: %d Polls in 200 ms of an idle LAN, want at most 10", name, d)
		}
		if d >= most {
			most, who = d, name
		}
	}
	t.Logf("most Polls of one member in 200 ms: %d (%s)", most, who)
}

// eachPlacement runs a case on a split node and on a single-server one: the
// hosted shells are the same code, so they owe the same behaviour.
func eachPlacement(t *testing.T, run func(t *testing.T, lan *LAN)) {
	for _, single := range []bool{false, true} {
		name := "split"
		if single {
			name = "single-server"
		}
		t.Run(name, func(t *testing.T) {
			run(t, testLAN(t, func(c *Config) { c.SingleServer = single }))
		})
	}
}

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*13 + i/107)
	}
	return out
}

// echoServer accepts one connection on port and echoes nBytes back.
func echoServer(t *testing.T, lan *LAN, port uint16, ready chan<- struct{}, done chan<- error) {
	cli, err := sock.NewClient(lan.B.Hub, fmt.Sprintf("srv%d", port))
	if err != nil {
		done <- err
		return
	}
	s, err := cli.Socket(sock.TCP)
	if err != nil {
		done <- err
		return
	}
	if err := s.Bind(port); err != nil {
		done <- err
		return
	}
	if err := s.Listen(8); err != nil {
		done <- err
		return
	}
	close(ready)
	conn, err := s.Accept()
	if err != nil {
		done <- err
		return
	}
	buf := make([]byte, 16384)
	for {
		n, err := conn.Recv(buf)
		if err != nil {
			done <- err
			return
		}
		if n == 0 {
			done <- nil
			return
		}
		if _, err := conn.Send(buf[:n]); err != nil {
			done <- err
			return
		}
	}
}

func TestTCPEchoOverFullStack(t *testing.T) { eachPlacement(t, tcpEcho) }

func tcpEcho(t *testing.T, lan *LAN) {
	ready := make(chan struct{})
	done := make(chan error, 1)
	go echoServer(t, lan, 7000, ready, done)
	<-ready

	cli, err := sock.NewClient(lan.A.Hub, "cli")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(lan.IPOf("b", 0), 7000); err != nil {
		t.Fatalf("connect: %v", err)
	}
	data := pattern(100000)
	var echoed []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 16384)
		for len(echoed) < len(data) {
			n, err := s.Recv(buf)
			if err != nil || n == 0 {
				t.Errorf("recv: n=%d err=%v", n, err)
				return
			}
			echoed = append(echoed, buf[:n]...)
		}
	}()
	if _, err := s.Send(data); err != nil {
		t.Fatalf("send: %v", err)
	}
	wg.Wait()
	if !bytes.Equal(echoed, data) {
		t.Fatalf("echo corrupted (%d bytes)", len(echoed))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// A frame that fails the device's checksum check still hands its receive
// buffer back to IP: after more such frames than IP keeps posted to the
// driver, the node still receives and answers a TCP echo.
func TestBadChecksumFramesKeepTheNodeReceiving(t *testing.T) {
	lan := testLAN(t, nil)
	ready := make(chan struct{})
	go echoServer(t, lan, 7000, ready, make(chan error, 1))
	<-ready
	cli, err := sock.NewClient(lan.A.Hub, "cli")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_ = s.SetDeadline(time.Now().Add(5 * time.Second))
	if err := s.Connect(lan.IPOf("b", 0), 7000); err != nil {
		t.Fatal(err)
	}
	echo := func(tag string) {
		t.Helper()
		got := make([]byte, 16)
		if _, err := s.Send([]byte(tag)); err != nil {
			t.Fatal(err)
		}
		if n, err := s.Recv(got); err != nil || string(got[:n]) != tag {
			t.Fatalf("echo %q = %q, %v (B's device: %+v)", tag, got[:n], err, lan.DeviceOf("b", 0).Stats())
		}
	}
	echo("before")

	const frames = ipeng.RxBufsPerDriver + 64
	pool, err := lan.A.Hub.Space.NewPool("bad", 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	ptr, buf, _ := pool.Alloc()
	eh := netpkt.EthHeader{Dst: lan.DeviceOf("b", 0).MAC(), Src: netpkt.MAC{0x66}, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(buf)
	ih := netpkt.IPv4Header{TotalLen: netpkt.IPv4HeaderLen, TTL: 64, Proto: netpkt.ProtoICMP,
		Src: netpkt.MustIP("6.6.6.6"), Dst: lan.IPOf("b", 0)}
	ih.Marshal(buf[netpkt.EthHeaderLen:], true)
	buf[netpkt.EthHeaderLen+10] ^= 0xff // the header checksum
	desc := nic.TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, netpkt.EthHeaderLen+netpkt.IPv4HeaderLen)}}
	tx, rx := lan.DeviceOf("a", 0), lan.DeviceOf("b", 0)
	seen := func() uint64 { st := rx.Stats(); return st.RxFrames + st.RxDropsNoBuf }
	want := seen() + frames
	for i := 0; i < frames; i++ {
		for tx.PostTx(desc) == nic.ErrRingFull {
			time.Sleep(100 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for seen() < want {
		if time.Now().After(deadline) {
			t.Fatalf("B's device saw %d of %d frames", seen()+frames-want, frames)
		}
		time.Sleep(time.Millisecond)
	}
	_ = s.SetDeadline(time.Now().Add(5 * time.Second))
	echo("after")
}

func TestUDPQueryOverFullStack(t *testing.T) { eachPlacement(t, udpQuery) }

func udpQuery(t *testing.T, lan *LAN) {
	// "DNS server" on B.
	srvCli, err := sock.NewClient(lan.B.Hub, "dns")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := srvCli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(53); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, src, sport, err := srv.RecvFrom(buf)
			if err != nil {
				return
			}
			_, _ = srv.SendTo(append([]byte("answer:"), buf[:n]...), src, sport)
		}
	}()

	cli, err := sock.NewClient(lan.A.Hub, "resolver")
	if err != nil {
		t.Fatal(err)
	}
	q, err := cli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Bind(3353); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		msgTxt := fmt.Sprintf("query-%d", i)
		if _, err := q.SendTo([]byte(msgTxt), lan.IPOf("b", 0), 53); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		buf := make([]byte, 2048)
		n, _, _, err := q.RecvFrom(buf)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if string(buf[:n]) != "answer:"+msgTxt {
			t.Fatalf("reply %d = %q", i, buf[:n])
		}
	}
}

func TestPFBlocksAndStatefulPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack PF pump (~7s); skipped in -short")
	}
	eachPlacement(t, pfBlocksAndStatefulPasses)
}

func pfBlocksAndStatefulPasses(t *testing.T, lan *LAN) {
	// Block all inbound TCP to port 7100 on B.
	if err := lan.B.AddPFRule(pfeng.Rule{
		Action: pfeng.Block, Dir: pfeng.In, Proto: 6, DstPort: 7100, Quick: true,
	}); err != nil {
		t.Fatal(err)
	}

	// Server listens anyway.
	ready := make(chan struct{})
	done := make(chan error, 1)
	go echoServer(t, lan, 7100, ready, done)
	<-ready

	cli, err := sock.NewClient(lan.A.Hub, "blocked")
	if err != nil {
		t.Fatal(err)
	}
	cli.CallTimeout = 3 * time.Second
	s, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Connect(lan.IPOf("b", 0), 7100)
	if err == nil {
		t.Fatal("connect through a block rule succeeded")
	}

	// Outbound from B works (stateful return traffic passes the filter on
	// B even though inbound is blocked only for 7100 — also exercise a
	// full handshake on another port).
	ready2 := make(chan struct{})
	done2 := make(chan error, 1)
	go echoServer(t, lan, 7101, ready2, done2)
	<-ready2
	s2, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Connect(lan.IPOf("b", 0), 7101); err != nil {
		t.Fatalf("allowed port: %v", err)
	}
	if _, err := s2.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := s2.Recv(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo: %q %v", buf[:n], err)
	}
}

// TestPFPolicyPerInterface is the policy-routing scenario: the same port
// is blocked on one NIC and open on another. The rule travels packed over
// the control plane (pf.PackRule Iface bytes) and the verdict queries carry
// the crossing interface, so the whole per-interface PF path is end to end.
func TestPFPolicyPerInterface(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack PF pump (~7s); skipped in -short")
	}
	cfg := SplitTSO()
	cfg.HeartbeatMiss = 150 * time.Millisecond
	lan, err := NewLAN(cfg, 2, nic.WireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lan.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkDeadlines(t, lan); checkFlushes(t, lan) })
	t.Cleanup(lan.Stop)

	// eth1 is the untrusted wire: inbound TCP to 7300 is blocked there
	// only.
	if err := lan.B.AddPFRule(pfeng.Rule{
		Action: pfeng.Block, Dir: pfeng.In, Proto: 6, DstPort: 7300,
		Iface: "eth1", Quick: true,
	}); err != nil {
		t.Fatal(err)
	}

	ready := make(chan struct{})
	done := make(chan error, 1)
	go echoServer(t, lan, 7300, ready, done)
	<-ready

	cli, err := sock.NewClient(lan.A.Hub, "policycli")
	if err != nil {
		t.Fatal(err)
	}
	cli.CallTimeout = 3 * time.Second
	blocked, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := blocked.Connect(lan.IPOf("b", 1), 7300); err == nil {
		t.Fatal("connect over the blocked interface succeeded")
	}

	// The same port over eth0 works.
	cli.CallTimeout = 10 * time.Second
	ok, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Connect(lan.IPOf("b", 0), 7300); err != nil {
		t.Fatalf("connect over the open interface: %v", err)
	}
	if _, err := ok.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, err := ok.Recv(buf); err != nil || string(buf[:n]) != "hi" {
		t.Fatalf("echo over open interface: %q %v", buf[:n], err)
	}
}

// transferUnderCrash runs a TCP echo session and injects a fault into the
// named component of node B mid-transfer, asserting the transfer still
// completes (transparent recovery) unless expectBreak.
func transferUnderCrash(t *testing.T, comp string, expectBreak bool) {
	lan := testLAN(t, nil)
	ready := make(chan struct{})
	done := make(chan error, 1)
	go echoServer(t, lan, 7200, ready, done)
	<-ready

	cli, err := sock.NewClient(lan.A.Hub, "crashcli")
	if err != nil {
		t.Fatal(err)
	}
	cli.CallTimeout = 20 * time.Second
	s, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(lan.IPOf("b", 0), 7200); err != nil {
		t.Fatal(err)
	}

	// Warm up the connection.
	if _, err := s.Send([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	if _, err := s.Recv(buf); err != nil {
		t.Fatal(err)
	}

	// Inject the crash.
	p := lan.B.Proc(comp)
	if p == nil {
		t.Fatalf("no component %s", comp)
	}
	f := p.Fault()
	if f == nil {
		t.Fatalf("%s has no live fault point", comp)
	}
	f.Arm(faults.Crash)

	// Wait for the restart.
	deadline := time.Now().Add(5 * time.Second)
	for len(lan.B.Monitor.Events()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(lan.B.Monitor.Events()) == 0 {
		t.Fatalf("%s never recovered", comp)
	}
	time.Sleep(100 * time.Millisecond) // let rewiring settle

	// Continue the transfer.
	data := pattern(20000)
	_, sendErr := s.Send(data)
	var got []byte
	var recvErr error
	if sendErr == nil {
		for len(got) < len(data) {
			n, err := s.Recv(buf)
			if err != nil {
				recvErr = err
				break
			}
			if n == 0 {
				recvErr = errors.New("EOF")
				break
			}
			got = append(got, buf[:n]...)
		}
	}
	broken := sendErr != nil || recvErr != nil
	if expectBreak {
		if !broken {
			t.Fatalf("connection survived a %s crash; expected it to break", comp)
		}
		// The paper's key claim for TCP crashes: new connections can be
		// opened immediately (listening sockets are recovered).
		ready2 := make(chan struct{})
		done2 := make(chan error, 1)
		go echoServer(t, lan, 7201, ready2, done2)
		<-ready2
		s2, err := cli.Socket(sock.TCP)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Connect(lan.IPOf("b", 0), 7201); err != nil {
			t.Fatalf("reconnect after %s crash: %v", comp, err)
		}
		return
	}
	if broken {
		t.Fatalf("transfer broke across a %s crash: send=%v recv=%v", comp, sendErr, recvErr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data corrupted across a %s crash", comp)
	}
}

func TestPFCrashTransparent(t *testing.T)     { transferUnderCrash(t, CompPF, false) }
func TestDriverCrashTransparent(t *testing.T) { transferUnderCrash(t, "eth0", false) }
func TestIPCrashTransparent(t *testing.T)     { transferUnderCrash(t, CompIP, false) }
func TestTCPCrashBreaksConnections(t *testing.T) {
	transferUnderCrash(t, CompTCP, true)
}

func TestUDPCrashTransparentToSocket(t *testing.T) {
	lan := testLAN(t, nil)

	srvCli, _ := sock.NewClient(lan.B.Hub, "udpsrv")
	srv, err := srvCli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(5353); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, src, sport, err := srv.RecvFrom(buf)
			if err != nil {
				return
			}
			_, _ = srv.SendTo(buf[:n], src, sport)
		}
	}()

	cli, _ := sock.NewClient(lan.A.Hub, "udpcli")
	cli.CallTimeout = 20 * time.Second
	q, err := cli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Bind(5454); err != nil {
		t.Fatal(err)
	}
	query := func(tag string) error {
		if _, err := q.SendTo([]byte(tag), lan.IPOf("b", 0), 5353); err != nil {
			return err
		}
		buf := make([]byte, 2048)
		n, _, _, err := q.RecvFrom(buf)
		if err != nil {
			return err
		}
		if string(buf[:n]) != tag {
			return fmt.Errorf("got %q", buf[:n])
		}
		return nil
	}
	if err := query("before"); err != nil {
		t.Fatalf("before crash: %v", err)
	}

	// Crash the UDP server on B. The socket must keep working WITHOUT
	// being reopened — the paper's headline UDP recovery property.
	lan.B.Proc(CompUDP).Fault().Arm(faults.Crash)
	deadline := time.Now().Add(5 * time.Second)
	for len(lan.B.Monitor.Events()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	// Datagrams may be lost around the crash; retry a few times.
	var qerr error
	for i := 0; i < 10; i++ {
		if qerr = query(fmt.Sprintf("after-%d", i)); qerr == nil {
			break
		}
	}
	if qerr != nil {
		t.Fatalf("UDP socket dead after crash: %v", qerr)
	}
}

func TestNoSyscallServerConfig(t *testing.T) {
	lan := testLAN(t, func(c *Config) { c.SyscallServer = false })
	ready := make(chan struct{})
	done := make(chan error, 1)
	go echoServer(t, lan, 7300, ready, done)
	<-ready
	cli, err := sock.NewClient(lan.A.Hub, "direct")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cli.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(lan.IPOf("b", 0), 7300); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send([]byte("direct mode")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := s.Recv(buf)
	if err != nil || string(buf[:n]) != "direct mode" {
		t.Fatalf("echo: %q %v", buf[:n], err)
	}
}

// TestStoppedNodeTakesItsClientsDown: a machine that goes down takes its
// processes with it. Node.Stop halts the kernel, so for an application
// client nobody closed, calls parked on it fail, new ones fail at once, and
// its goroutines are gone — without Client.Close, where the pump would
// otherwise poll the dead frontdoor every 100 ms forever.
func TestStoppedNodeTakesItsClientsDown(t *testing.T) {
	base := runtime.NumGoroutine()
	lan, err := NewLAN(SplitTSO(), 1, nic.WireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lan.Start(); err != nil {
		t.Fatal(err)
	}
	cli, err := sock.NewClient(lan.A.Hub, "outlives-its-node")
	if err != nil {
		t.Fatal(err)
	}
	u, err := cli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Bind(5300); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, _, _, err := u.RecvFrom(make([]byte, 64))
		parked <- err
	}()
	time.Sleep(50 * time.Millisecond) // let RecvFrom park on the readable edge

	lan.Stop()
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("RecvFrom on a stopped node returned data")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvFrom stayed parked on a stopped node")
	}
	start := time.Now()
	if _, err := cli.Socket(sock.TCP); err == nil {
		t.Fatal("a socket call succeeded on a stopped node")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a socket call on a stopped node took %v to fail", took)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the LAN, %d after Stop:\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestPFControlCallAbortedOnPFRestart: a control call in flight when PF
// reincarnates is answered — with an abort, like a call to any other
// restarted peer — instead of leaking in the door's pending table while the
// caller sits out its five-second receive.
func TestPFControlCallAbortedOnPFRestart(t *testing.T) {
	lan := testLAN(t, nil)
	stop := make(chan struct{})
	type result struct {
		calls, aborted int
		slowest        time.Duration
		err            error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		for {
			select {
			case <-stop:
				done <- r
				return
			default:
			}
			start := time.Now()
			err := lan.B.AddPFRule(pfeng.Rule{Action: pfeng.Block, Dir: pfeng.In, DstPort: 9999})
			r.calls++
			r.slowest = max(r.slowest, time.Since(start))
			if err != nil {
				r.aborted++
				if !strings.Contains(err.Error(), fmt.Sprint(msg.StatusErrAborted)) {
					r.err = err
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		crashAndRecover(t, lan.B, CompPF)
	}
	close(stop)
	r := <-done
	t.Logf("%d calls, %d aborted, slowest %v", r.calls, r.aborted, r.slowest)
	if r.err != nil {
		t.Fatalf("a control call failed with something other than an abort: %v", r.err)
	}
	if r.slowest > 500*time.Millisecond {
		t.Fatalf("a control call took %v across a PF restart, want an answer within 500ms", r.slowest)
	}
}
