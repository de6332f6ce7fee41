// Quickstart: boot two NewtOS nodes connected by a virtual gigabit wire
// and run a UDP echo between them through the full decomposed stack —
// driver, IP, packet filter, UDP server, SYSCALL server — using the
// POSIX-style socket API.
//
// The blocking calls below are thin wrappers over the stack's nonblocking
// core: each socket runs in stack-level nonblocking mode and the library
// waits on edge-triggered readiness events instead of parking a call in a
// server. The same machinery scales to one goroutine serving hundreds of
// sockets (sock.Poller; see experiments.TestC100KSmoke) and to unmodified
// stdlib code over sock.Dial / sock.Listen (see examples/httpserve).
package main

import (
	"fmt"
	"log"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A LAN of two nodes, one wire, the flagship split-stack config.
	lan, err := core.NewLAN(core.SplitTSO(), 1, nic.Gigabit())
	if err != nil {
		return err
	}
	defer lan.Stop()
	if err := lan.Start(); err != nil {
		return err
	}
	fmt.Println("two NewtOS nodes booted: 7 servers each, channels wired")

	// Echo server on node B.
	srvCli, err := sock.NewClient(lan.B.Hub, "echo-server")
	if err != nil {
		return err
	}
	srv, err := srvCli.Socket(sock.UDP)
	if err != nil {
		return err
	}
	if err := srv.Bind(7); err != nil {
		return err
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, src, sport, err := srv.RecvFrom(buf)
			if err != nil {
				return
			}
			if _, err := srv.SendTo(buf[:n], src, sport); err != nil {
				return
			}
		}
	}()

	// Client on node A.
	cli, err := sock.NewClient(lan.A.Hub, "echo-client")
	if err != nil {
		return err
	}
	s, err := cli.Socket(sock.UDP)
	if err != nil {
		return err
	}
	if err := s.Bind(30007); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		text := fmt.Sprintf("hello through the multiserver stack #%d", i)
		if _, err := s.SendTo([]byte(text), lan.IPOf("b", 0), 7); err != nil {
			return err
		}
		buf := make([]byte, 2048)
		n, _, _, err := s.RecvFrom(buf)
		if err != nil {
			return err
		}
		fmt.Printf("echo %d: %q\n", i, buf[:n])
	}
	fmt.Println("done — zero kernel involvement on the data path")
	return nil
}
