package udpeng

// Live-update state transfer, the UDP half of the drain-and-handoff
// protocol (docs/ARCHITECTURE.md "Zero-downtime live update"). Unlike
// RestoreState — the crash path, which recreates sockets with fresh empty
// buffers and accepts datagram loss — HandoffState/RestoreHandoff carry the
// complete live state across: queued-but-unconsumed datagrams (still
// referencing IP's pool, which never restarted), parked recv requests,
// in-flight sends with their request ids, and the very TX buffer objects by
// handle, so not a single event is lost in a planned swap.

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// handoffRx mirrors rxItem with exported fields for gob.
type handoffRx struct {
	SrcIP     netpkt.IPAddr
	SrcPort   uint16
	Payload   shm.RichPtr
	DeliverID uint64
}

// handoffSocket mirrors socket. bufIdx is incarnation-local (rebuilt by
// trackBuf); the buffer itself crosses by handle.
type handoffSocket struct {
	ID          uint32
	Port        uint16
	Bound       bool
	RemoteIP    netpkt.IPAddr
	RemotePt    uint16
	Connected   bool
	Nonblock    bool
	HasBuf      bool
	RecvQ       []handoffRx
	PendingRecv uint64
}

// handoffSend mirrors pendingSend plus its request id: the sendDone reply
// already on the wire carries this id, and the successor must keep
// matching it.
type handoffSend struct {
	ID      uint64
	FrontID uint64
	Sock    uint32
	Hdr     shm.RichPtr
	Payload []shm.RichPtr
	DstIP   netpkt.IPAddr
	DstPort uint16
}

// handoffState is the whole engine image.
type handoffState struct {
	Sockets   []handoffSocket
	Sends     []handoffSend
	Next      uint32
	NextReqID uint64
	ToIP      []msg.Req
	ToFront   []msg.Req
	Stats     Stats
	// Closing lists closed sockets whose last sends are still with IP;
	// their TX buffers cross by handle like an open socket's.
	Closing []uint32
}

// HandoffState serializes the engine for a live update and returns the
// blob plus the per-socket TX buffer handles the successor adopts in
// place. Runs on the loop goroutine as the old incarnation's final act.
func (e *Engine) HandoffState() ([]byte, map[uint32]*sockbuf.Buf, error) {
	st := handoffState{
		Next:      e.next,
		NextReqID: e.db.LastID(),
		ToIP:      e.toIP,
		ToFront:   e.toFront,
		Stats:     e.stats,
	}
	bufs := make(map[uint32]*sockbuf.Buf)
	for _, s := range e.sockets {
		hs := handoffSocket{
			ID: s.id, Port: s.port, Bound: s.bound,
			RemoteIP: s.remoteIP, RemotePt: s.remotePt, Connected: s.connected,
			Nonblock: s.nonblock, HasBuf: s.buf != nil, PendingRecv: s.pendingRecv,
		}
		for _, rx := range s.recvQ {
			hs.RecvQ = append(hs.RecvQ, handoffRx{
				SrcIP: rx.srcIP, SrcPort: rx.srcPort,
				Payload: rx.payload, DeliverID: rx.deliverID,
			})
		}
		st.Sockets = append(st.Sockets, hs)
		if s.buf != nil {
			bufs[s.id] = s.buf
		}
	}
	for id, s := range e.closing {
		st.Closing = append(st.Closing, id)
		bufs[id] = s.buf
	}
	e.db.Each(func(id uint64, dest string, data any) {
		if dest != "ip" {
			return
		}
		if ps, ok := data.(pendingSend); ok {
			st.Sends = append(st.Sends, handoffSend{
				ID: id, FrontID: ps.frontID, Sock: ps.sock, Hdr: ps.hdr,
				Payload: ps.payload, DstIP: ps.dstIP, DstPort: ps.dstPort,
			})
		}
	})
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(&st); err != nil {
		return nil, nil, fmt.Errorf("udpeng: handoff encode: %w", err)
	}
	return b.Bytes(), bufs, nil
}

// RestoreHandoff rebuilds the engine from a predecessor's blob and the
// transferred buffer handles. Called from the successor's Init, before its
// first Poll. Readiness is conservatively re-announced for nonblocking
// sockets: spurious edges, never lost ones.
func (e *Engine) RestoreHandoff(blob []byte, bufs map[uint32]*sockbuf.Buf, _ time.Time) error {
	var st handoffState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return fmt.Errorf("udpeng: handoff decode: %w", err)
	}
	e.next = st.Next
	e.stats = st.Stats
	e.toIP = append(e.toIP, st.ToIP...)
	e.toFront = append(e.toFront, st.ToFront...)
	e.db.Seed(st.NextReqID)
	for _, hs := range st.Sockets {
		if hs.HasBuf && bufs[hs.ID] == nil {
			return fmt.Errorf("udpeng: handoff socket %d: missing TX buffer handle", hs.ID)
		}
		s := &socket{
			id: hs.ID, port: hs.Port, bound: hs.Bound,
			remoteIP: hs.RemoteIP, remotePt: hs.RemotePt, connected: hs.Connected,
			nonblock: hs.Nonblock, bufIdx: -1, pendingRecv: hs.PendingRecv,
		}
		for _, rx := range hs.RecvQ {
			s.recvQ = append(s.recvQ, rxItem{
				srcIP: rx.SrcIP, srcPort: rx.SrcPort,
				payload: rx.Payload, deliverID: rx.DeliverID,
			})
		}
		if buf := bufs[hs.ID]; buf != nil {
			s.buf = buf
			e.trackBuf(s)
			// The registry entry from the predecessor's PublishBuf is
			// still live — same buffer object — so no re-publish.
		}
		e.sockets[s.id] = s
		if s.bound {
			e.byPort[s.port] = s.id
		}
		// Resume phase: re-emit current levels as edges. The frontdoor's
		// poller may have consumed an edge the instant before the swap;
		// spurious wakeups are benign, lost ones strand a poller forever.
		bits := uint64(msg.EvWritable)
		if len(s.recvQ) > 0 {
			bits |= msg.EvReadable
		}
		e.event(s, bits)
	}
	for _, id := range st.Closing {
		if bufs[id] == nil {
			return fmt.Errorf("udpeng: handoff closed socket %d: missing TX buffer handle", id)
		}
		e.closing[id] = &socket{id: id, buf: bufs[id], bufIdx: -1}
	}
	// In-flight sends keep their ids (replies already on the wire carry
	// them) and re-arm the same abort action the send path installs.
	for _, hsend := range st.Sends {
		ps := pendingSend{
			frontID: hsend.FrontID, sock: hsend.Sock, hdr: hsend.Hdr,
			payload: hsend.Payload, dstIP: hsend.DstIP, dstPort: hsend.DstPort,
		}
		e.db.Track(hsend.ID, "ip", ps, func(_ uint64, data any) {
			e.resubmitSend(data.(pendingSend))
		})
		if s := cmp.Or(e.sockets[ps.sock], e.closing[ps.sock]); s != nil {
			s.inflight++
		}
	}
	e.persist()
	return nil
}
