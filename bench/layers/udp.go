package layers

import (
	"errors"
	"fmt"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
	"newtos/internal/udpeng"
)

// driveUDP measures the UDP engine with 64 B datagrams (the rr_small
// shape): the send path from the front request to the send-done from IP,
// and the receive path from IP's delivery to the release of its buffer.
func driveUDP(b *bench) error {
	space := shm.NewSpace()
	hdr, err := space.NewPool("udp.hdr", 128, 256)
	if err != nil {
		return err
	}
	rx, err := space.NewPool("udp.rx", 2048, 256)
	if err != nil {
		return err
	}
	bufs := map[uint32]*sockbuf.Buf{}
	local, peer := netpkt.IPAddr{10, 0, 0, 1}, netpkt.IPAddr{10, 0, 0, 2}
	e := udpeng.New(udpeng.Config{
		Space: space, LocalIP: local, Offload: true,
		PublishBuf: func(s uint32, buf *sockbuf.Buf) { bufs[s] = buf },
	}, hdr)
	var id uint64
	call := func(r msg.Req) (msg.Req, error) {
		id++
		r.ID = id
		e.FromFront(r)
		for _, rep := range e.DrainToFront() {
			if rep.ID == r.ID {
				return rep, nil
			}
		}
		return msg.Req{}, fmt.Errorf("%v: no synchronous reply", r.Op)
	}
	rep, err := call(msg.Req{Op: msg.OpSockCreate})
	if err != nil {
		return err
	}
	sock := rep.Flow
	bind := msg.Req{Op: msg.OpSockBind, Flow: sock}
	bind.Arg[0] = 5000
	if rep, err = call(bind); err != nil || rep.Status != msg.StatusOK {
		return fmt.Errorf("bind: %v status %d", err, rep.Status)
	}
	buf := bufs[sock]
	if buf == nil {
		return errors.New("no socket buffer published")
	}
	payload := make([]byte, 64)

	var stepErr error
	fail := func(err error) int {
		if stepErr == nil {
			stepErr = err
		}
		return 1
	}
	var sw stopwatch
	tx := b.run("udpeng.tx", func() int {
		chunk, ok := buf.Get()
		if !ok {
			return fail(errors.New("socket buffer exhausted"))
		}
		ptr, err := buf.Write(chunk, payload)
		if err != nil {
			return fail(err)
		}
		id++
		r := msg.Req{ID: id, Op: msg.OpSockSend, Flow: sock}
		r.SetChain([]shm.RichPtr{ptr})
		r.Arg[0], r.Arg[1] = uint64(peer.U32()), 6000
		sw.time(func() {
			e.FromFront(r)
			for _, out := range e.DrainToIP() {
				if out.Op == msg.OpIPSend {
					e.FromIP(msg.Req{ID: out.ID, Op: msg.OpIPSendDone, Status: msg.StatusOK})
				}
			}
			e.DrainToFront()
			e.Tick()
		})
		return 1
	})
	if stepErr != nil {
		return fmt.Errorf("send: %w", stepErr)
	}
	b.rep.add("udpeng.tx_ns_per_dgram", float64(sw.total)/float64(max(sw.calls, 1)), "ns")

	sw.reset()
	rxc := b.run("udpeng.rx", func() int {
		ptr, view, err := rx.Alloc()
		if err != nil {
			return fail(err)
		}
		uh := netpkt.UDPHeader{SrcPort: 6000, DstPort: 5000, Length: uint16(netpkt.UDPHeaderLen + len(payload))}
		uh.Marshal(view)
		copy(view[netpkt.UDPHeaderLen:], payload)
		id++
		in := msg.Req{ID: id, Op: msg.OpIPDeliver}
		in.SetChain([]shm.RichPtr{ptr.Slice(0, uint32(netpkt.UDPHeaderLen+len(payload)))})
		in.Arg[1] = uint64(peer.U32())
		id++
		recv := msg.Req{ID: id, Op: msg.OpSockRecv, Flow: sock}
		released := false
		sw.time(func() {
			e.FromIP(in)
			e.FromFront(recv)
			for _, rep := range e.DrainToFront() {
				if rep.Op == msg.OpSockRecvData {
					done := msg.Req{Op: msg.OpSockRecvDone, Flow: sock}
					done.Arg[0] = rep.Arg[2]
					e.FromFront(done)
				}
			}
			for _, out := range e.DrainToIP() {
				released = released || (out.Op == msg.OpIPDeliverDone && out.ID == in.ID)
			}
		})
		if !released {
			return fail(errors.New("delivered datagram was not released"))
		}
		if err := rx.Free(ptr); err != nil {
			return fail(err)
		}
		return 1
	})
	if stepErr != nil {
		return fmt.Errorf("receive: %w", stepErr)
	}
	b.rep.add("udpeng.rx_ns_per_dgram", float64(sw.total)/float64(max(sw.calls, 1)), "ns")
	b.rep.add("udpeng.allocs_per_dgram", (tx.allocs+rxc.allocs)/2, "count")
	return nil
}
