// Pingflood: the ping-of-death scenario (§V): a flood of malformed ICMP
// and truncated IP packets is thrown at a node while a TCP transfer runs.
// A monolithic system with the historical bug would panic; NewtOS drops
// the garbage in IP (and even an induced IP crash only causes a brief gap
// before the reincarnation server brings it back).
package main

import (
	"fmt"
	"log"
	"time"

	"newtos/internal/core"
	"newtos/internal/faults"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/shm"
	"newtos/internal/sock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := core.SplitTSO()
	cfg.HeartbeatMiss = 150 * time.Millisecond
	lan, err := core.NewLAN(cfg, 1, nic.Gigabit())
	if err != nil {
		return err
	}
	defer lan.Stop()
	if err := lan.Start(); err != nil {
		return err
	}

	// Echo service on B.
	ready := make(chan struct{})
	go func() {
		cli, _ := sock.NewClient(lan.B.Hub, "victim")
		l, _ := cli.Socket(sock.TCP)
		_ = l.Bind(80)
		_ = l.Listen(2)
		close(ready)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 16384)
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

	cli, err := sock.NewClient(lan.A.Hub, "attackerhost")
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
	echo := func(tag string) bool {
		if _, err := tcp.Send([]byte(tag)); err != nil {
			return false
		}
		buf := make([]byte, 256)
		n, err := tcp.Recv(buf)
		return err == nil && string(buf[:n]) == tag
	}
	if !echo("pre-flood") {
		return fmt.Errorf("echo dead before the flood")
	}

	// The flood: malformed frames injected directly at A's device — short
	// IP headers, bad checksums, oversized-claiming ICMP, truncated ARP.
	fmt.Println("flooding node B with 5000 malformed packets ...")
	space := lan.A.Hub.Space
	pool, err := space.NewPool("attack", 2048, 64)
	if err != nil {
		return err
	}
	dev := deviceOfA(lan)
	sent := 0
	for i := 0; i < 5000; i++ {
		ptr, buf, err := pool.Alloc()
		if err != nil {
			// Attack traffic is fire-and-forget: drop the spent pool and
			// carry on with a fresh one.
			space.Drop(pool.ID())
			if pool, err = space.NewPool("attack", 2048, 64); err != nil {
				return err
			}
			continue
		}
		n := buildMalformed(buf, i)
		if err := dev.PostTx(nic.TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(n))}, Cookie: uint64(i)}); err == nil {
			sent++
		}
		if i%64 == 0 {
			dev.CollectTx()
		}
	}
	dev.CollectTx()
	fmt.Printf("injected %d hostile frames\n", sent)
	time.Sleep(300 * time.Millisecond)

	if !echo("post-flood") {
		return fmt.Errorf("TCP connection did not survive the flood")
	}
	fmt.Println("stack survived: malformed packets dropped in IP, TCP unaffected")

	// Escalate: crash IP outright (the worst realistic outcome of a
	// parser bug) and show the system heals.
	fmt.Println("escalating: crashing B's IP server ...")
	lan.B.Proc(core.CompIP).Fault().Arm(faults.Crash)
	deadline := time.Now().Add(5 * time.Second)
	for len(lan.B.Monitor.Events()) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if len(lan.B.Monitor.Events()) == 0 {
		return fmt.Errorf("IP was not reincarnated")
	}
	time.Sleep(300 * time.Millisecond)
	ok := false
	for i := 0; i < 20 && !ok; i++ {
		ok = echo(fmt.Sprintf("post-crash-%d", i))
		time.Sleep(100 * time.Millisecond)
	}
	if !ok {
		return fmt.Errorf("connection did not recover after the IP restart")
	}
	fmt.Println("IP reincarnated; the same TCP connection kept working")
	return nil
}

// deviceOfA digs out node A's device for raw injection.
func deviceOfA(lan *core.LAN) *nic.Device {
	return lan.DeviceOf("a", 0)
}

// buildMalformed produces one of several classes of hostile frame.
func buildMalformed(buf []byte, i int) int {
	eth := netpkt.EthHeader{
		Dst: netpkt.MAC{0xbb, 0, 0, 0, 0, 0}, Src: netpkt.MAC{0x66},
		Type: netpkt.EtherTypeIPv4,
	}
	eth.Marshal(buf)
	switch i % 4 {
	case 0: // truncated IP header
		copy(buf[14:], []byte{0x45, 0, 0})
		return 17
	case 1: // bad IP checksum
		ih := netpkt.IPv4Header{TotalLen: 28, TTL: 64, Proto: netpkt.ProtoICMP,
			Src: netpkt.MustIP("6.6.6.6"), Dst: netpkt.MustIP("10.0.0.2")}
		ih.Marshal(buf[14:], true)
		buf[24] ^= 0xff
		return 14 + 28
	case 2: // ICMP echo with a length lying about its payload (ping of death)
		ih := netpkt.IPv4Header{TotalLen: 60000, TTL: 64, Proto: netpkt.ProtoICMP,
			Src: netpkt.MustIP("6.6.6.6"), Dst: netpkt.MustIP("10.0.0.2")}
		ih.Marshal(buf[14:], true)
		return 14 + 64
	default: // garbage ethertype payload
		for j := 14; j < 80; j++ {
			buf[j] = byte(j * i)
		}
		return 80
	}
}
