package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"newtos/internal/faults"
	"newtos/internal/ipsrv"
	"newtos/internal/msg"
	"newtos/internal/pf"
	"newtos/internal/pfeng"
	"newtos/internal/proc"
	"newtos/internal/sock"
	"newtos/internal/syscallsrv"
	"newtos/internal/tcpsrv"
	"newtos/internal/udpsrv"
)

// part is a scripted shell for the composite's own contract.
type part struct {
	initErr  error
	deadline time.Time
	inits    int
}

func (p *part) Init(*proc.Runtime, bool) error { p.inits++; return p.initErr }
func (p *part) Poll(time.Time) bool            { return false }
func (p *part) Deadline(time.Time) time.Time   { return p.deadline }
func (p *part) Stop()                          {}

func TestHostedDeadlineIsEarliestNonZero(t *testing.T) {
	now := time.Now()
	if d := (hosted{&part{}, &part{}}).Deadline(now); !d.IsZero() {
		t.Fatalf("no part has a timer, deadline = %v", d)
	}
	early, late := now.Add(time.Millisecond), now.Add(time.Second)
	h := hosted{&part{}, &part{deadline: late}, &part{deadline: early}, &part{}}
	if d := h.Deadline(now); !d.Equal(early) {
		t.Fatalf("deadline = %v, want the earliest non-zero %v", d, early)
	}
}

func TestHostedInitFailureFailsTheLaunch(t *testing.T) {
	boom := errors.New("boom")
	first, bad, last := &part{}, &part{initErr: boom}, &part{}
	p := proc.New("stack", func() proc.Service { return hosted{first, bad, last} }, nil)
	if err := p.Start(); !errors.Is(err, boom) {
		t.Fatalf("Start = %v, want the part's error", err)
	}
	if first.inits != 1 || last.inits != 0 {
		t.Fatalf("inits = %d, %d: want boot order, stopping at the failure", first.inits, last.inits)
	}
	if p.Service() != nil {
		t.Fatal("a failed launch left a live service")
	}
}

// TestSingleServerNamesTheStack: the node's process list, crashable
// components and drop counters name "stack", not the shells it hosts.
func TestSingleServerNamesTheStack(t *testing.T) {
	lan := testLAN(t, func(c *Config) { c.SingleServer = true })
	n := lan.B
	if want := []string{CompStorage, "eth0", CompStack, CompSC}; !slices.Equal(n.order, want) {
		t.Fatalf("boot order = %v, want %v", n.order, want)
	}
	if want := []string{"eth0", CompStack}; !slices.Equal(n.Components(), want) {
		t.Fatalf("components = %v, want %v", n.Components(), want)
	}
	drops := n.OutboxDroppedPer()
	if _, ok := drops[CompStack]; !ok {
		t.Fatalf("drop counters %v do not name %q", drops, CompStack)
	}
	for _, hostedName := range []string{CompIP, CompPF, CompTCP, CompUDP} {
		if _, ok := drops[hostedName]; ok || n.Proc(hostedName) != nil {
			t.Fatalf("%q is still a process of its own", hostedName)
		}
	}
}

// echoPair opens a TCP listener and a bound UDP socket on node B, each
// echoing what it receives, and returns client-side probes from node A: a
// fresh TCP connection per call, one long-lived UDP socket. The servers'
// loops ride out restarts of the stack beneath them without reopening
// anything, which is what the recovery tests observe.
func echoPair(t *testing.T, lan *LAN, tcpPort, udpPort uint16) (tcpEcho, udpEcho func(tag string) error) {
	t.Helper()
	srv, err := sock.NewClient(lan.B.Hub, "srv")
	if err != nil {
		t.Fatal(err)
	}
	// Without the SYSCALL server a call in flight at a crash dies with the
	// front that held it; CallTimeout ends the app's wait.
	srv.CallTimeout = 200 * time.Millisecond
	l, err := srv.Socket(sock.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Bind(tcpPort); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(8); err != nil {
		t.Fatal(err)
	}
	u, err := srv.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Bind(udpPort); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close) // ends both loops below
	go func() {
		for {
			conn, err := l.Accept()
			if errors.Is(err, sock.ErrClosed) {
				return
			}
			if err != nil {
				time.Sleep(time.Millisecond) // stack restarting, or a call lost with it
				continue
			}
			go func() {
				buf := make([]byte, 2048)
				for {
					n, err := conn.Recv(buf)
					if err != nil || n == 0 {
						return
					}
					if _, err := conn.Send(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, src, sport, err := u.RecvFrom(buf)
			if errors.Is(err, sock.ErrClosed) {
				return
			}
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			_, _ = u.SendTo(buf[:n], src, sport)
		}
	}()

	cli, err := sock.NewClient(lan.A.Hub, "cli")
	if err != nil {
		t.Fatal(err)
	}
	cli.CallTimeout = 2 * time.Second
	q, err := cli.Socket(sock.UDP)
	if err != nil {
		t.Fatal(err)
	}
	tcpEcho = func(tag string) error {
		s, err := cli.Socket(sock.TCP)
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Connect(lan.IPOf("b", 0), tcpPort); err != nil {
			return err
		}
		if _, err := s.Send([]byte(tag)); err != nil {
			return err
		}
		buf := make([]byte, 64)
		n, err := s.Recv(buf)
		if err != nil || string(buf[:n]) != tag {
			return fmt.Errorf("tcp echo %q: %q %v", tag, buf[:n], err)
		}
		return nil
	}
	udpEcho = func(tag string) error {
		if _, err := q.SendTo([]byte(tag), lan.IPOf("b", 0), udpPort); err != nil {
			return err
		}
		q.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		buf := make([]byte, 64)
		n, _, _, err := q.RecvFrom(buf)
		if err != nil || string(buf[:n]) != tag {
			return fmt.Errorf("udp echo %q: %q %v", tag, buf[:n], err)
		}
		return nil
	}
	for name, echo := range map[string]func(string) error{"tcp": tcpEcho, "udp": udpEcho} {
		if err := echo("before"); err != nil {
			t.Fatalf("%s before any crash: %v", name, err)
		}
	}
	return tcpEcho, udpEcho
}

// crashAndRecover crashes one component of n and waits for the
// reincarnation server to have restarted it.
func crashAndRecover(t *testing.T, n *Node, comp string) {
	t.Helper()
	before := len(n.Monitor.Events())
	n.Proc(comp).Fault().Arm(faults.Crash)
	deadline := time.Now().Add(5 * time.Second)
	for len(n.Monitor.Events()) == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(n.Monitor.Events()) == before {
		t.Fatalf("%s never recovered", comp)
	}
}

// retryEcho runs a probe until it succeeds: packets around a crash may be
// lost.
func retryEcho(t *testing.T, what string, echo func(string) error) {
	t.Helper()
	var err error
	for i := 0; i < 10; i++ {
		if err = echo(fmt.Sprintf("after-%d", i)); err == nil {
			return
		}
	}
	t.Fatalf("%s: %v", what, err)
}

// TestStackCrashRestoresSockets: one crash takes IP, PF, TCP and UDP down
// together, and all four recover together — the TCP listener accepts again
// and the bound UDP socket answers again, neither reopened — through the
// SYSCALL server and through the direct fronts.
func TestStackCrashRestoresSockets(t *testing.T) {
	for _, sc := range []bool{true, false} {
		t.Run(fmt.Sprintf("sc=%v", sc), func(t *testing.T) {
			lan := testLAN(t, func(c *Config) { c.SingleServer, c.SyscallServer = true, sc })
			tcpEcho, udpEcho := echoPair(t, lan, 7400, 5400)
			crashAndRecover(t, lan.B, CompStack)
			retryEcho(t, "tcp socket dead after the stack crash", tcpEcho)
			retryEcho(t, "udp socket dead after the stack crash", udpEcho)
		})
	}
}

// TestHostedDoorReannouncesAfterRestart covers the rows without a SYSCALL
// server, where a door shares its transport's process: when that process
// crashes — the UDP server's own on a split node, the whole stack's on a
// single-server one (Table II row 1) — the new door restores its
// subscription table from storage, re-pushes the nonblocking mode to the
// sockets the engine restored and pokes their subscribers, so a parked
// poller wakes and the socket still answers "would block" instead of
// parking the call.
func TestHostedDoorReannouncesAfterRestart(t *testing.T) {
	for _, single := range []bool{false, true} {
		comp := CompUDP
		if single {
			comp = CompStack
		}
		t.Run("crash "+comp, func(t *testing.T) {
			lan := testLAN(t, func(c *Config) { c.SyscallServer, c.SingleServer = false, single })
			cli, err := sock.NewClient(lan.A.Hub, "directpoll")
			if err != nil {
				t.Fatal(err)
			}
			cli.CallTimeout = 2 * time.Second
			s, err := cli.Socket(sock.UDP)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Bind(5600); err != nil {
				t.Fatal(err)
			}
			s.SetNonblock(true)
			p := cli.NewPoller()
			if err := p.Add(s, msg.EvReadable|msg.EvWritable); err != nil {
				t.Fatal(err)
			}
			for { // drain the edges arming raised
				evs, err := p.Wait(0)
				if err != nil {
					t.Fatal(err)
				}
				if len(evs) == 0 {
					break
				}
			}

			crashAndRecover(t, lan.A, comp)

			evs, err := p.Wait(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			woke := false
			for _, e := range evs {
				woke = woke || e.Sock == s
			}
			if !woke {
				t.Fatalf("poller not woken by the re-announced edge (events %v)", evs)
			}
			if _, _, _, err := s.RecvFrom(make([]byte, 64)); !errors.Is(err, sock.ErrWouldBlock) {
				t.Fatalf("recv on the recovered socket: %v, want ErrWouldBlock (mode bits re-pushed)", err)
			}
		})
	}
}

// TestStorageCrashIsRestored: the storage server loses everything when it
// crashes (paper §V-D: "every other server has to store its state again"),
// so every server must notice and park its state again — or an idle
// listener and an idle UDP socket, which cause no further saves on their
// own, are gone for good when TCP or UDP crashes later.
func TestStorageCrashIsRestored(t *testing.T) {
	lan := testLAN(t, nil)
	tcpEcho, udpEcho := echoPair(t, lan, 7500, 5500)
	if err := lan.B.AddPFRule(pfeng.Rule{Action: pfeng.Block, Dir: pfeng.In, DstPort: 9999}); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, lan.B, CompStorage)
	time.Sleep(20 * time.Millisecond) // the wipe rings every watcher's bell, and each loop re-stores
	for _, key := range []string{
		tcpsrv.StorageKey, udpsrv.StorageKey, ipsrv.StorageKey, pf.RulesKey,
		syscallsrv.TCP().StateKey(), syscallsrv.UDP().StateKey(),
	} {
		if _, ok := lan.B.Hub.Store.Get(key); !ok {
			t.Errorf("%s not stored again after the storage crash", key)
		}
	}
	crashAndRecover(t, lan.B, CompTCP)
	retryEcho(t, "listener lost: TCP crashed after a storage crash", tcpEcho)
	crashAndRecover(t, lan.B, CompUDP)
	retryEcho(t, "UDP socket lost: UDP crashed after a storage crash", udpEcho)
}
