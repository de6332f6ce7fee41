// Liveupdate: replace live engines mid-traffic without rebooting — the
// paper's MS11-083 scenario (§V): "we are able to replace the buggy UDP
// component without rebooting. Given the fact that most Internet traffic
// is carried by the TCP protocol, this traffic remains completely
// unaffected by the replacement."
//
// Unlike a crash-recovery restart (see examples/reincarnation), this demo
// rides the drain-and-handoff path: Node.Upgrade quiesces the old engine
// at a batch boundary, streams its live state to a fresh incarnation, and
// re-points the wiring — no storage round-trip, no RTO stall. A TCP bulk
// transfer is mid-flight through the very TCP server being swapped, and the
// demo asserts the echoed stream comes back byte-exact; the UDP socket
// keeps answering without being reopened. Phase timings (drain, transfer,
// rewire, resume) are printed for each swap.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

const bulkTotal = 512 * 1024

func pattern(off int) byte { return byte(off*7 + off>>8) }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := core.SplitTSO()
	lan, err := core.NewLAN(cfg, 1, nic.Gigabit())
	if err != nil {
		return err
	}
	defer lan.Stop()
	if err := lan.Start(); err != nil {
		return err
	}

	// TCP echo service + UDP time service on B.
	ready := make(chan struct{})
	go func() {
		cli, _ := sock.NewClient(lan.B.Hub, "services")
		l, _ := cli.Socket(sock.TCP)
		_ = l.Bind(80)
		_ = l.Listen(2)
		u, _ := cli.Socket(sock.UDP)
		_ = u.Bind(123)
		go func() {
			buf := make([]byte, 2048)
			for {
				n, src, sport, err := u.RecvFrom(buf)
				if err != nil {
					return
				}
				_, _ = u.SendTo(buf[:n], src, sport)
			}
		}()
		close(ready)
		conn, err := l.Accept()
		if err != nil {
			return
		}
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
	}()
	<-ready

	cli, err := sock.NewClient(lan.A.Hub, "client")
	if err != nil {
		return err
	}
	cli.CallTimeout = 15 * time.Second
	tcp, err := cli.Socket(sock.TCP)
	if err != nil {
		return err
	}
	if err := tcp.Connect(lan.IPOf("b", 0), 80); err != nil {
		return err
	}
	udp, err := cli.Socket(sock.UDP)
	if err != nil {
		return err
	}
	_ = udp.Bind(31123)

	query := func(tag string) bool {
		if _, err := udp.SendTo([]byte(tag), lan.IPOf("b", 0), 123); err != nil {
			return false
		}
		_ = udp.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 256)
		n, _, _, err := udp.RecvFrom(buf)
		return err == nil && string(buf[:n]) == tag
	}
	if !query("before-update") {
		return fmt.Errorf("UDP service not answering before the update")
	}

	// Bulk TCP transfer: a patterned 512 KiB stream echoed back through
	// the TCP server that is about to be swapped out from under it.
	var sent atomic.Int64
	sendErr := make(chan error, 1)
	go func() {
		slab := make([]byte, 8192)
		for off := 0; off < bulkTotal; off += len(slab) {
			for i := range slab {
				slab[i] = pattern(off + i)
			}
			if _, err := tcp.Send(slab); err != nil {
				sendErr <- fmt.Errorf("bulk send at %d: %w", off, err)
				return
			}
			sent.Add(int64(len(slab)))
		}
		sendErr <- nil
	}()

	// Read the echo back, verifying every byte; once a third of the
	// stream is through, live-update the TCP server and the UDP server
	// while the transfer keeps running.
	buf := make([]byte, 64*1024)
	got, swapped := 0, false
	for got < bulkTotal {
		n, err := tcp.Recv(buf)
		if err != nil {
			return fmt.Errorf("bulk recv after %d bytes: %w", got, err)
		}
		if n == 0 {
			return fmt.Errorf("unexpected EOF after %d bytes", got)
		}
		for i := 0; i < n; i++ {
			if buf[i] != pattern(got+i) {
				return fmt.Errorf("byte %d corrupted across the swap", got+i)
			}
		}
		got += n
		if !swapped && got >= bulkTotal/3 {
			swapped = true
			fmt.Printf("mid-transfer (%d/%d bytes echoed): live-updating engines on node B ...\n", got, bulkTotal)
			ph, err := lan.B.Upgrade(core.CompTCP)
			if err != nil {
				return fmt.Errorf("upgrade tcp: %w", err)
			}
			fmt.Printf("  %s\n", ph)
			ph, err = lan.B.Upgrade(core.CompUDP)
			if err != nil {
				return fmt.Errorf("upgrade udp: %w", err)
			}
			fmt.Printf("  %s\n", ph)
		}
	}
	if err := <-sendErr; err != nil {
		return err
	}
	if !swapped {
		return fmt.Errorf("transfer finished before the swap fired")
	}

	// The UDP socket must still work without reopening.
	ok := false
	for i := 0; i < 10 && !ok; i++ {
		ok = query(fmt.Sprintf("after-update-%d", i))
	}
	if !ok {
		return fmt.Errorf("UDP socket dead after the update")
	}
	fmt.Printf("update complete: %d bytes echoed byte-exact across the live swap,\n", got)
	fmt.Printf("UDP socket survived without reopening\n")
	return nil
}
