package sock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// Socket is one open socket. Blocking calls are wrappers over the
// nonblocking core: issue the op, and on StatusErrAgain wait for the
// matching readiness edge (bounded by the socket's deadline). Nothing
// re-polls: every EAGAIN the stack answers is followed by an edge
// (docs/ARCHITECTURE.md "The wait contract"), so a blocked call wakes on
// that edge, its deadline or Close. SetNonblock switches the wrappers to
// return ErrWouldBlock instead of waiting, which is how a Poller-driven
// application uses the socket.
type Socket struct {
	c     *Client
	proto Proto
	id    uint32
	ev    *evState
	buf   *sockbuf.Buf
	// leftover is the part of a datagram (UDP only) that the caller has
	// not consumed yet, together with the source it arrived from: a short
	// read must not erase where the rest came from.
	leftover     []byte
	leftoverIP   netpkt.IPAddr
	leftoverPort uint16
	eof          bool

	// nonblock is the USER-level mode (the stack side always runs
	// nonblocking; this only selects wrapper behavior).
	nonblock atomic.Bool
	// closed is set by Close. Every later call returns ErrClosed at once,
	// touching neither the stack nor the shared TX buffer, which the
	// transport releases once the connection's FIN is acknowledged.
	closed atomic.Bool

	dlMu       sync.Mutex
	rdDeadline time.Time
	wrDeadline time.Time

	// Addresses, best effort: filled by Bind/Connect/Accept.
	localPort  uint16
	remoteIP   netpkt.IPAddr
	remotePort uint16
}

// Socket opens a socket on the given transport. The socket is created in
// stack-level nonblocking mode — the single code path this library speaks.
func (c *Client) Socket(p Proto) (*Socket, error) {
	rep, err := c.call(p, msg.Req{Op: msg.OpSockCreate}, time.Time{})
	if err != nil {
		return nil, err
	}
	if err := statusErr(rep.Status); err != nil {
		return nil, err
	}
	s := &Socket{c: c, proto: p, id: rep.Flow}
	s.ev = c.register(s)
	if err := s.armStackNonblock(); err != nil {
		c.unregister(s)
		return nil, err
	}
	return s, nil
}

// armStackNonblock puts the stack-side socket in nonblocking mode and
// subscribes this client to its readiness events. The engine re-announces
// current readiness on arming, so no edge from before the subscription is
// lost.
func (s *Socket) armStackNonblock() error {
	r := msg.Req{Op: msg.OpSockSetFlags, Flow: s.id}
	r.Arg[0] = msg.SockNonblock
	rep, err := s.c.call(s.proto, r, time.Time{})
	if err != nil {
		return err
	}
	return statusErr(rep.Status)
}

// ID returns the stack-side socket identifier.
func (s *Socket) ID() uint32 { return s.id }

// SetNonblock selects user-level nonblocking mode: Accept/Recv/Connect
// return ErrWouldBlock instead of waiting for readiness, and Send returns
// a short count (or ErrWouldBlock when nothing was staged) under
// backpressure. Combine with a Poller to drive many sockets from one
// goroutine.
func (s *Socket) SetNonblock(nb bool) { s.nonblock.Store(nb) }

// SetDeadline bounds future blocking operations (read and write): an
// operation that cannot complete by t fails with ErrTimeout. The zero time
// removes the bound. Setting a deadline wakes operations already waiting.
func (s *Socket) SetDeadline(t time.Time) error {
	s.dlMu.Lock()
	s.rdDeadline, s.wrDeadline = t, t
	s.dlMu.Unlock()
	s.ev.wake()
	return nil
}

// SetReadDeadline bounds future (and waiting) Recv/Accept calls.
func (s *Socket) SetReadDeadline(t time.Time) error {
	s.dlMu.Lock()
	s.rdDeadline = t
	s.dlMu.Unlock()
	s.ev.wake()
	return nil
}

// SetWriteDeadline bounds future (and waiting) Send/Connect calls.
func (s *Socket) SetWriteDeadline(t time.Time) error {
	s.dlMu.Lock()
	s.wrDeadline = t
	s.dlMu.Unlock()
	s.ev.wake()
	return nil
}

func (s *Socket) readDeadline() time.Time {
	s.dlMu.Lock()
	defer s.dlMu.Unlock()
	return s.rdDeadline
}

func (s *Socket) writeDeadline() time.Time {
	s.dlMu.Lock()
	defer s.dlMu.Unlock()
	return s.wrDeadline
}

// waitEvent is what a wrapper does with an EAGAIN: in user-level
// nonblocking mode it returns ErrWouldBlock; otherwise it blocks until one
// of the mask bits is posted for this socket (consuming exactly those bits),
// the socket or its client closes, or the deadline — re-read through dl
// every wakeup, so concurrent SetDeadline calls take effect — expires. The
// caller then re-issues the nonblocking op.
func (s *Socket) waitEvent(mask uint64, dl func() time.Time) error {
	if s.nonblock.Load() {
		return ErrWouldBlock
	}
	ev := s.ev
	for {
		ev.mu.Lock()
		got := ev.bits & mask
		ev.bits &^= got
		closed := ev.closed
		// Capture the broadcast channel under the same lock as the bits
		// check: any wake after this point closes precisely this channel.
		notify := ev.notify
		ev.mu.Unlock()
		if got != 0 {
			return nil
		}
		if closed {
			return ErrClosed
		}
		var expiry <-chan time.Time // nil, never ready, without a deadline
		if deadline := dl(); !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return ErrTimeout
			}
			expiry = time.After(d) // collected once unreferenced (Go 1.23+)
		}
		select {
		case <-notify:
		case <-expiry: // the loop re-reads the deadline: SetDeadline may have moved it
		case <-s.c.stop:
			return ErrClosed
		}
	}
}

// Bind binds the socket to a local port.
func (s *Socket) Bind(port uint16) error {
	r := msg.Req{Op: msg.OpSockBind, Flow: s.id}
	r.Arg[0] = uint64(port)
	rep, err := s.c.call(s.proto, r, time.Time{})
	if err != nil {
		return err
	}
	if err := statusErr(rep.Status); err != nil {
		return err
	}
	s.localPort = port
	return nil
}

// Listen makes a bound TCP socket accept connections.
func (s *Socket) Listen(backlog int) error {
	r := msg.Req{Op: msg.OpSockListen, Flow: s.id}
	r.Arg[0] = uint64(backlog)
	rep, err := s.c.call(s.proto, r, time.Time{})
	if err != nil {
		return err
	}
	return statusErr(rep.Status)
}

// Accept returns the next established connection: immediately from the
// accept queue, ErrWouldBlock in nonblocking mode (drain until then on
// every EvAcceptReady edge), otherwise waiting for the accept-ready edge.
func (s *Socket) Accept() (*Socket, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	for {
		rep, err := s.c.call(s.proto, msg.Req{Op: msg.OpSockAccept, Flow: s.id}, s.readDeadline())
		if err != nil {
			return nil, err
		}
		if rep.Status == msg.StatusErrAgain {
			if err := s.waitEvent(msg.EvAcceptReady|msg.EvError, s.readDeadline); err != nil {
				return nil, err
			}
			continue
		}
		if err := statusErr(rep.Status); err != nil {
			return nil, err
		}
		child := &Socket{
			c: s.c, proto: s.proto, id: uint32(rep.Arg[0]),
			localPort:  s.localPort,
			remoteIP:   netpkt.IPFromU32(uint32(rep.Arg[1])),
			remotePort: uint16(rep.Arg[2]),
		}
		child.ev = s.c.register(child)
		if err := child.armStackNonblock(); err != nil {
			s.c.unregister(child)
			return nil, err
		}
		return child, nil
	}
}

// Connect establishes a connection (TCP) or sets the default remote (UDP).
// The nonblocking handshake completes across calls: the eventual outcome is
// learned by re-issuing the connect after the writable/error edge — in
// user-level nonblocking mode the caller does that itself after
// ErrWouldBlock, EINPROGRESS-style.
func (s *Socket) Connect(ip netpkt.IPAddr, port uint16) error {
	if s.closed.Load() {
		return ErrClosed
	}
	for {
		r := msg.Req{Op: msg.OpSockConnect, Flow: s.id}
		r.Arg[0] = uint64(ip.U32())
		r.Arg[1] = uint64(port)
		rep, err := s.c.call(s.proto, r, s.writeDeadline())
		if err != nil {
			return err
		}
		if rep.Status == msg.StatusErrAgain {
			if err := s.waitEvent(msg.EvWritable|msg.EvError, s.writeDeadline); err != nil {
				return err
			}
			continue
		}
		if err := statusErr(rep.Status); err != nil {
			return err
		}
		if p := uint16(rep.Arg[1]); p != 0 {
			s.localPort = p
		}
		s.remoteIP, s.remotePort = ip, port
		return nil
	}
}

// fetchBuf attaches the socket's shared TX buffer. TCP provisions buffers
// lazily (an idle connection holds no TX memory), so a missing export is
// resolved by asking the transport to provision one now; UDP still exports
// eagerly at socket creation.
func (s *Socket) fetchBuf() error {
	if s.buf != nil {
		return nil
	}
	pfx := "sockbuf/tcp/"
	if s.proto == UDP {
		pfx = "sockbuf/udp/"
	}
	a, ok := s.c.hub.Reg.Get(pfx + fmt.Sprint(s.id))
	if !ok && s.proto == TCP {
		rep, err := s.c.call(s.proto, msg.Req{Op: msg.OpSockBufEnsure, Flow: s.id}, s.writeDeadline())
		if err != nil {
			return err
		}
		if err := statusErr(rep.Status); err != nil {
			return err
		}
		a, ok = s.c.hub.Reg.Get(pfx + fmt.Sprint(s.id))
	}
	if !ok {
		return fmt.Errorf("sock: no shared buffer for socket %d", s.id)
	}
	buf, ok := a.Value.(*sockbuf.Buf)
	if !ok {
		return fmt.Errorf("sock: bad buffer announcement for socket %d", s.id)
	}
	s.buf = buf
	return nil
}

// Send writes data to the socket; in blocking mode it waits for buffer
// space on the writable edge and returns when everything was accepted. In
// nonblocking mode a partial send is a success — (n, nil) with n <
// len(data), write(2)-style — and ErrWouldBlock is returned only when
// nothing could be staged.
func (s *Socket) Send(data []byte) (int, error) {
	return s.SendTo(data, netpkt.IPAddr{}, 0)
}

// SendTo is Send with an explicit destination (UDP).
func (s *Socket) SendTo(data []byte, dst netpkt.IPAddr, port uint16) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if err := s.fetchBuf(); err != nil {
		return 0, err
	}
	total := 0
	for total < len(data) {
		// A Close on another goroutine ends the send before it stages
		// into a buffer the transport may be releasing.
		if s.closed.Load() {
			return total, ErrClosed
		}
		// Enforce the write deadline BEFORE staging: chunks taken from the
		// supply ring can only be recycled by the transport, so a chain
		// abandoned client-side after an expired-deadline check would leak
		// ring capacity forever. The call itself runs deadline-free (its
		// reply is immediate; CallTimeout still bounds a wedged stack).
		if dl := s.writeDeadline(); !dl.IsZero() && !time.Now().Before(dl) {
			return total, ErrTimeout
		}
		r := msg.Req{Op: msg.OpSockSend, Flow: s.id}
		r.Arg[0] = uint64(dst.U32())
		r.Arg[1] = uint64(port)
		n, filled, err := s.fillChain(&r, data[total:])
		if err != nil {
			return total, err
		}
		if filled > 0 {
			rep, err := s.c.call(s.proto, r, time.Time{})
			if err != nil {
				return total, err
			}
			err = statusErr(rep.Status)
			if err == nil {
				total += n
				continue
			}
			if !errors.Is(err, ErrWouldBlock) {
				return total, err
			}
		}
		// No free chunks — the stack is still draining earlier data — or
		// the stack refused the chain under buffer pressure and recycled
		// it: wait for the writable edge and restage. A nonblocking sender
		// that already staged bytes has succeeded with a short count
		// (write(2): never report an error after committing data).
		if err := s.waitEvent(msg.EvWritable|msg.EvError, s.writeDeadline); err != nil {
			if total > 0 && errors.Is(err, ErrWouldBlock) {
				return total, nil
			}
			return total, err
		}
	}
	return total, nil
}

// fillChain moves as much of data as fits into free shared-buffer chunks,
// recording the rich pointers in r. Returns bytes staged and chunks used.
func (s *Socket) fillChain(r *msg.Req, data []byte) (int, int, error) {
	staged := 0
	var chain []shm.RichPtr
	for len(chain) < msg.MaxPtrs-1 && staged < len(data) {
		chunk, ok := s.buf.Get()
		if !ok {
			break
		}
		n := len(data) - staged
		if n > s.buf.ChunkSize() {
			n = s.buf.ChunkSize()
		}
		ptr, err := s.buf.Write(chunk, data[staged:staged+n])
		if err != nil {
			return staged, len(chain), err
		}
		chain = append(chain, ptr)
		staged += n
	}
	r.SetChain(chain)
	return staged, len(chain), nil
}

// Recv reads up to len(p) bytes; in blocking mode it waits for the
// readable edge until data (or EOF) arrives. A return of (0, nil) means
// EOF. In nonblocking mode an empty queue returns ErrWouldBlock.
func (s *Socket) Recv(p []byte) (int, error) {
	n, _, _, err := s.recvMeta(p)
	return n, err
}

// RecvFrom is Recv returning the datagram source (UDP).
func (s *Socket) RecvFrom(p []byte) (int, netpkt.IPAddr, uint16, error) {
	return s.recvMeta(p)
}

func (s *Socket) recvMeta(p []byte) (int, netpkt.IPAddr, uint16, error) {
	if s.closed.Load() {
		return 0, netpkt.IPAddr{}, 0, ErrClosed
	}
	// Serve leftover bytes first — tagged with the source address of the
	// datagram they arrived in.
	if len(s.leftover) > 0 {
		n := copy(p, s.leftover)
		s.leftover = s.leftover[n:]
		return n, s.leftoverIP, s.leftoverPort, nil
	}
	if s.eof {
		return 0, netpkt.IPAddr{}, 0, nil
	}
	for {
		rep, err := s.c.call(s.proto, msg.Req{Op: msg.OpSockRecv, Flow: s.id}, s.readDeadline())
		if err != nil {
			return 0, netpkt.IPAddr{}, 0, err
		}
		if rep.Op != msg.OpSockRecvData {
			if rep.Status != msg.StatusErrAgain {
				return 0, netpkt.IPAddr{}, 0, statusErr(rep.Status)
			}
			if err := s.waitEvent(msg.EvReadable|msg.EvEOF|msg.EvError, s.readDeadline); err != nil {
				return 0, netpkt.IPAddr{}, 0, err
			}
			continue
		}
		if err := statusErr(rep.Status); err != nil {
			return 0, netpkt.IPAddr{}, 0, err
		}
		return s.consumeRecvData(p, rep)
	}
}

// consumeRecvData copies a data reply out of the shared views straight into
// p, then acknowledges so the stack can release the buffers and reopen the
// window. What does not fit in p stays where it is for TCP — the engine
// keeps every byte that is not acknowledged and offers it again on the next
// Recv — and is kept here for UDP, whose acknowledgement gives the whole
// datagram's buffer back.
func (s *Socket) consumeRecvData(p []byte, rep msg.Req) (int, netpkt.IPAddr, uint16, error) {
	var srcIP netpkt.IPAddr
	var srcPort uint16
	if s.proto == UDP {
		// UDP data replies carry the datagram source; a datagram always
		// has a chain, so no EOF interpretation applies.
		srcIP = netpkt.IPFromU32(uint32(rep.Arg[0]))
		srcPort = uint16(rep.Arg[1])
	} else if rep.Arg[0] == 0 {
		// TCP: a data reply without bytes is EOF.
		s.eof = true
		return 0, netpkt.IPAddr{}, 0, nil
	}
	n := 0
	stale := false
	for _, ptr := range rep.Chain() {
		v, err := s.c.hub.Space.View(ptr)
		if err != nil {
			// The pool owner restarted under us; the bytes are gone.
			stale = true
			break
		}
		m := copy(p[n:], v)
		n += m
		if m == len(v) {
			continue
		}
		if s.proto != UDP {
			break
		}
		s.leftover = append(s.leftover, v[m:]...)
		s.leftoverIP, s.leftoverPort = srcIP, srcPort
	}
	done := msg.Req{Op: msg.OpSockRecvDone, Flow: s.id}
	done.Arg[0] = uint64(n) // TCP: the bytes consumed
	if s.proto == UDP {
		done.Arg[0] = rep.Arg[2] // deliver cookie for datagram release
	}
	_ = s.c.post(s.proto, done)
	if n == 0 && stale {
		// Nothing was copied before the stale view: (0, nil) would read as
		// EOF (TCP) or an empty datagram (UDP), but the bytes are gone.
		return 0, srcIP, srcPort, ErrAborted
	}
	return n, srcIP, srcPort, nil
}

// Close closes the socket and wakes every goroutine waiting on it. Closing
// it again is ErrClosed.
func (s *Socket) Close() error {
	if s.closed.Swap(true) {
		return ErrClosed
	}
	rep, err := s.c.call(s.proto, msg.Req{Op: msg.OpSockClose, Flow: s.id}, time.Time{})
	s.c.unregister(s)
	if err != nil {
		return err
	}
	return statusErr(rep.Status)
}

// LocalPort returns the bound or engine-assigned local port (0 if none
// known yet).
func (s *Socket) LocalPort() uint16 { return s.localPort }

// RemoteAddr returns the connected peer (zero values if none).
func (s *Socket) RemoteAddr() (netpkt.IPAddr, uint16) { return s.remoteIP, s.remotePort }
