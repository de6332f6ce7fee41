package udpeng

// State records (docs/ARCHITECTURE.md "State records"): the one way UDP
// state leaves the engine. socket.record describes a socket once, for
// writing and for reading, and both engine images are made of those records:
//
//   - HandoffState, the live-update image, carries the complete live state
//     across: queued-but-unconsumed datagrams (still referencing IP's pool,
//     which never restarted), parked recv requests, in-flight sends with
//     their request ids, and — by handle, beside the image — the very TX
//     buffer objects, so not a single event is lost in a planned swap.
//   - SaveState, the crash image parked in the storage server, is a
//     projection of it: per socket exactly what the paper lists ("which
//     sockets are currently open, to what local address and port they are
//     bound, and to which remote pair they are connected"), and nothing
//     live. The crash path recreates sockets with fresh empty buffers and
//     accepts datagram loss.
//
// Both are read by Restore and every socket is installed by installSocket.

import (
	"fmt"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/sockbuf"
	"newtos/internal/staterec"
)

// record names every field of a socket that means something to another
// incarnation, in wire order. The TX buffer crosses by handle, so it is not
// here.
func (s *socket) record(c *staterec.Codec) {
	staterec.Num(c, &s.id)
	staterec.Num(c, &s.port)
	c.Bool(&s.bound)
	c.Bytes(s.remoteIP[:])
	staterec.Num(c, &s.remotePt)
	c.Bool(&s.connected)
	c.Bool(&s.nonblock)
	staterec.Num(c, &s.inflight)
	staterec.List(c, &s.recvQ, 4+2+staterec.PtrSize+8, func(rx *rxItem) {
		c.Bytes(rx.srcIP[:])
		staterec.Num(c, &rx.srcPort)
		c.Ptr(&rx.payload)
		staterec.Num(c, &rx.deliverID)
	})
	staterec.Num(c, &s.pendingRecv)
}

// record names the fields of a send outstanding at IP.
func (ps *pendingSend) record(c *staterec.Codec) {
	staterec.Num(c, &ps.frontID)
	staterec.Num(c, &ps.sock)
	c.Ptr(&ps.hdr)
	staterec.List(c, &ps.payload, staterec.PtrSize, c.Ptr)
	c.Bytes(ps.dstIP[:])
	staterec.Num(c, &ps.dstPort)
}

// counters lists every Stats field, for the live section.
func (s *Stats) counters() []*uint64 {
	return []*uint64{
		&s.DatagramsOut, &s.DatagramsIn, &s.DroppedNoSocket, &s.DroppedQueueFull,
		&s.DroppedWrongSource, &s.SendsAborted, &s.Resubmitted,
	}
}

// persist notes that the socket table changed; Tick saves it.
func (e *Engine) persist() {
	e.dirty = e.cfg.SaveState != nil
}

// header opens every image: the socket-id counter, and whether a live
// section follows.
func (e *Engine) header(c *staterec.Codec, live bool) bool {
	staterec.Num(c, &e.next)
	c.Bool(&live)
	return live
}

// SaveState serializes the socket table for crash recovery: per socket,
// exactly what the paper lists and nothing live.
func (e *Engine) SaveState() ([]byte, error) {
	return staterec.Encode(func(c *staterec.Codec) {
		e.header(c, false)
		n := len(e.sockets)
		c.Count(&n, 1)
		for _, s := range e.sockets {
			keep := socket{
				id: s.id, port: s.port, bound: s.bound,
				remoteIP: s.remoteIP, remotePt: s.remotePt, connected: s.connected,
			}
			keep.record(c)
		}
	}), nil
}

// HandoffState serializes the engine for a live update and returns the
// image plus the per-socket TX buffer handles the successor adopts in
// place. Runs on the loop goroutine as the old incarnation's final act.
func (e *Engine) HandoffState() ([]byte, map[uint32]*sockbuf.Buf, error) {
	bufs := make(map[uint32]*sockbuf.Buf)
	table := func(c *staterec.Codec, socks map[uint32]*socket) {
		n := len(socks)
		c.Count(&n, 1)
		for id, s := range socks {
			bufs[id] = s.buf
			s.record(c)
		}
	}
	blob := staterec.Encode(func(c *staterec.Codec) {
		e.header(c, true)
		e.live(c)
		// Closed sockets whose last sends are still with IP: their TX
		// buffers cross by handle like an open socket's.
		table(c, e.closing)
		table(c, e.sockets)
	})
	return blob, bufs, nil
}

// Restore rebuilds the engine from an image: a predecessor's HandoffState
// with its transferred buffer handles, or the SaveState image a crashed
// incarnation left in storage ("It is easy to recreate the sockets after
// the crash"). Called from a new incarnation's Init, before its first Poll;
// an engine whose restore failed is half-built and must be discarded.
func (e *Engine) Restore(blob []byte, bufs map[uint32]*sockbuf.Buf, _ time.Time) error {
	err := staterec.Decode(blob, func(c *staterec.Codec) {
		live := e.header(c, false)
		// table reads a list of socket records and gives each its TX buffer:
		// in a live update the predecessor's own, by handle (its registry
		// entry is still live, so no re-publish); after a crash a fresh one,
		// exported anew.
		table := func(install func(*socket) error) {
			var n int
			for c.Count(&n, 1); n > 0 && c.Err() == nil; n-- {
				s := &socket{}
				if s.record(c); c.Err() != nil {
					return
				}
				var err error
				if live {
					if s.buf = bufs[s.id]; s.buf == nil {
						err = fmt.Errorf("socket %d: missing TX buffer handle", s.id)
					}
				} else if s.buf, err = e.newBuf(fmt.Sprintf("udp.sock.%d.r", s.id)); err == nil && e.cfg.PublishBuf != nil {
					e.cfg.PublishBuf(s.id, s.buf)
				}
				if err == nil {
					err = install(s)
				}
				c.Fail(err)
			}
		}
		if live {
			e.live(c)
			table(func(s *socket) error { e.closing[s.id] = s; return nil })
		}
		table(e.installSocket)
	})
	if err != nil {
		return fmt.Errorf("udpeng: restore: %w", err)
	}
	// Seed this incarnation's storage snapshot from the restored table: the
	// first Tick saves it.
	e.persist()
	return nil
}

// live is the part of an image only a live update carries: counters,
// un-drained output, and the sends outstanding at IP. Those keep their
// request ids — the sendDone replies already on the wire carry them, and
// the successor must keep matching them.
func (e *Engine) live(c *staterec.Codec) {
	for _, ctr := range e.stats.counters() {
		staterec.Num(c, ctr)
	}
	staterec.List(c, &e.toIP, staterec.MinReqSize, c.Req)
	staterec.List(c, &e.toFront, staterec.MinReqSize, c.Req)
	lastID, n := e.db.LastID(), e.db.Len() // every request the engine tracks is one to IP
	staterec.Num(c, &lastID)
	c.Count(&n, 1)
	if !c.Reading() {
		e.db.Each(func(id uint64, _ string, data any) {
			ps, _ := data.(pendingSend)
			staterec.Num(c, &id)
			ps.record(c)
		})
		return
	}
	e.db.Seed(lastID)
	for ; n > 0; n-- {
		var id uint64
		var ps pendingSend
		staterec.Num(c, &id)
		if ps.record(c); c.Err() != nil {
			return
		}
		// The same abort action the send path installs.
		e.db.Track(id, "ip", ps, func(_ uint64, data any) {
			e.resubmitSend(data.(pendingSend))
		})
	}
}

// installSocket gives a decoded socket, already holding its TX buffer, a
// home in this incarnation: its table and port entries. Crash recovery and
// live update both end here.
func (e *Engine) installSocket(s *socket) error {
	if e.sockets[s.id] != nil {
		return fmt.Errorf("socket %d: duplicate socket id", s.id)
	}
	e.sockets[s.id] = s
	if s.bound {
		e.byPort[s.port] = s.id
	}
	// Resume phase: re-emit current levels as edges. The frontdoor's poller
	// may have consumed an edge the instant before the swap; spurious
	// wakeups are benign, lost ones strand a poller forever.
	e.event(s, s.readiness())
	return nil
}

// readiness is a socket's current level state as event bits.
func (s *socket) readiness() uint64 {
	bits := uint64(msg.EvWritable) // a UDP socket with free chunks can always send
	if len(s.recvQ) > 0 {
		bits |= msg.EvReadable
	}
	return bits
}

// Flows returns the connected sockets as PF conntrack keys, for PF's
// rebuild after its own crash. Src is the address source selection picks
// towards the peer — the one the datagrams really carry.
func (e *Engine) Flows() []pfeng.Flow {
	out := make([]pfeng.Flow, 0, len(e.sockets))
	for _, s := range e.sockets {
		if s.connected {
			out = append(out, pfeng.Flow{
				Proto: netpkt.ProtoUDP,
				Src:   e.srcFor(s.remoteIP), SrcPort: s.port,
				Dst: s.remoteIP, DstPort: s.remotePt,
			})
		}
	}
	return out
}
