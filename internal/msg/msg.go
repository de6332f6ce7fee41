// Package msg defines the request that travels through fast-path channel
// queues and, as the body of a kernel message (kipc.Msg), between
// applications and the doors, and the operation vocabulary spoken between
// the servers of the decomposed networking stack.
//
// The paper (§IV "Queues") describes each filled queue slot as "a marshalled
// request (not unlike a remote procedure call) which tells the receiver what
// to do next", with all slots on one queue having the same size. Req is that
// fixed-size slot. Large data never rides in the slot; it is referenced by
// rich pointers into shared pools (package shm).
package msg

import (
	"fmt"

	"newtos/internal/shm"
)

// Op tells the receiving server what to do with a request.
type Op uint16

// Operation codes for every channel in the stack. Grouped by the channel
// they travel on; REQ flows "down" the arrow, REP flows back.
const (
	OpInvalid Op = iota

	// IP -> driver.
	OpTxSubmit  // transmit frame; Ptrs = chunk chain, Arg0 = offload flags, Arg1 = TSO segment size
	OpTxDone    // driver -> IP reply: frame hit the wire (or was dropped); Status
	OpRxSupply  // IP -> driver: empty RX buffer the device may DMA into
	OpRxPacket  // driver -> IP: received frame; Ptrs[0] = buffer, Arg0 = length, Arg1 = checksum flag (ok or bad)
	OpDrvReset  // IP -> driver: reset the device (used during IP recovery)
	OpDrvInfo   // driver -> IP: link/MAC announcement; Arg0..1 = MAC, Arg2 = link Mbps
	OpLinkEvent // driver -> IP: link transition edge event; Arg0 = 1 up / 0 down

	// Transport (TCP/UDP) -> IP.
	OpIPSend     // send a packet; Ptrs = transport hdr + payload chain; Arg0 = proto, Arg1 = src IP, Arg2 = dst IP, Arg3 = flags (offload request)
	OpIPSendDone // IP -> transport reply: packet left IP (driver accepted); data may be freed when ACKed (TCP) or now (UDP)

	// IP -> transport.
	OpIPDeliver     // inbound packet for this proto; Ptrs[0] = full packet view, Arg0 = l4 offset, Arg1 = src IP, Arg2 = dst IP, Arg3 = total length
	OpIPDeliverDone // transport -> IP reply: buffer no longer referenced, IP may recycle

	// IP <-> packet filter (the "T junction", paper Fig. 3).
	OpPFQuery   // IP -> PF: verdict request; Arg0 = direction (0 in / 1 out), Arg1 = packed iface name, Ptrs = packet
	OpPFVerdict // PF -> IP: Status = 0 pass, 1 block

	// SYSCALL server <-> transports (control plane; data goes via pools).
	OpSockCreate
	OpSockBind
	OpSockConnect
	OpSockListen
	OpSockAccept
	OpSockSend     // Ptrs = user data chain (app-owned pool)
	OpSockSendDone // transport -> app (via SC): data chunk released; app may free
	OpSockRecv
	OpSockRecvData // transport -> SC -> app: Ptrs = received data (transport-owned), app must ack
	OpSockRecvDone // app -> transport: done copying, free the chunk
	OpSockClose
	OpSockReply     // generic completion; Status carries errno-style result
	OpSockSetFlags  // set per-socket mode bits; Arg0 = SockNonblock et al.
	OpSockEvent     // async edge-triggered readiness; Arg0 = Ev* bits (readable, writable, accept-ready, EOF, error)
	OpSockBufEnsure // app -> transport: provision + publish the socket's lazy TX buffer

	// Packet filter configuration (SC <-> PF).
	OpPFRuleAdd
	OpPFRuleFlush
	OpPFStats

	// Generic / liveness.
	OpPing
	OpPong

	// NumOps is one past the last operation code.
	NumOps
)

var opNames = map[Op]string{
	OpInvalid: "invalid", OpTxSubmit: "tx-submit", OpTxDone: "tx-done",
	OpRxSupply: "rx-supply", OpRxPacket: "rx-packet", OpDrvReset: "drv-reset",
	OpDrvInfo: "drv-info", OpLinkEvent: "link-event",
	OpIPSend: "ip-send", OpIPSendDone: "ip-send-done",
	OpIPDeliver: "ip-deliver", OpIPDeliverDone: "ip-deliver-done",
	OpPFQuery: "pf-query", OpPFVerdict: "pf-verdict",
	OpSockCreate: "sock-create", OpSockBind: "sock-bind", OpSockConnect: "sock-connect",
	OpSockListen: "sock-listen", OpSockAccept: "sock-accept", OpSockSend: "sock-send",
	OpSockSendDone: "sock-send-done", OpSockRecv: "sock-recv",
	OpSockRecvData: "sock-recv-data", OpSockRecvDone: "sock-recv-done",
	OpSockClose: "sock-close", OpSockReply: "sock-reply",
	OpSockSetFlags: "sock-set-flags", OpSockEvent: "sock-event",
	OpSockBufEnsure: "sock-buf-ensure",
	OpPFRuleAdd:     "pf-rule-add", OpPFRuleFlush: "pf-rule-flush", OpPFStats: "pf-stats",
	OpPing: "ping", OpPong: "pong",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// The doors: the kernel endpoint names applications send their socket and
// packet-filter control calls to. A door is registered by the SYSCALL
// server or, on a node without one, by the transport behind it.
const (
	TCPFrontdoor = "frontdoor-tcp"
	UDPFrontdoor = "frontdoor-udp"
	PFFrontdoor  = "frontdoor-pf"
)

// Offload flags for OpTxSubmit / OpIPSend (Arg0 / Arg3).
const (
	OffloadCsumIP  = 1 << 0 // device fills the IPv4 header checksum
	OffloadCsumL4  = 1 << 1 // device fills the TCP/UDP checksum
	OffloadTSO     = 1 << 2 // oversized TCP segment; device splits at Arg1 bytes
	FlagCsumOK     = 1 << 3 // RX: device verified checksums
	FlagLinkDown   = 1 << 4
	FlagMoreEvents = 1 << 5
	FlagCsumBad    = 1 << 6 // RX: the device's checksum check failed
)

// Socket mode bits (OpSockSetFlags Arg0). A nonblocking socket's
// accept/recv/connect reply StatusErrAgain instead of parking in the
// engine, and the engine publishes OpSockEvent readiness edges for it.
const (
	SockNonblock uint64 = 1 << 0
)

// Readiness event bits (OpSockEvent Arg0). Events are EDGE-triggered: the
// engine announces transitions (empty→nonempty receive queue, exhausted→free
// send buffer, handshake completion, first queued child), not levels.
// Consumers must treat a bit as a hint to re-issue the nonblocking
// operation — after a server restart the frontdoor re-announces edges
// conservatively, so spurious events are part of the contract.
const (
	EvReadable    uint64 = 1 << 0 // receive queue went empty → nonempty
	EvWritable    uint64 = 1 << 1 // send buffer freed / connect completed
	EvAcceptReady uint64 = 1 << 2 // listener has an established child queued
	EvEOF         uint64 = 1 << 3 // peer closed its half (FIN)
	EvError       uint64 = 1 << 4 // socket failed (reset, timeout, server crash)
)

// MaxPtrs is the maximum chunk-chain length one request can carry. Modern
// NICs gather frames from scattered chunks. Sized so that one TSO burst —
// a header chunk plus 64 KB of payload in 4 KB socket-buffer chunks — fits
// a single request, which is precisely how TSO cuts the stack's internal
// request rate (Table II rows 5-6).
const MaxPtrs = 18

// Req is one fixed-size queue slot.
type Req struct {
	// ID is the request-database identifier. Replies echo the ID of the
	// request they complete so the sender can match them (paper §IV
	// "Database of requests").
	ID uint64
	// Op says what to do.
	Op Op
	// NPtr is the number of valid entries in Ptrs.
	NPtr uint8
	// Status carries the result on replies (0 = OK, negative = error).
	Status int32
	// Flow identifies the socket / connection / interface the request
	// concerns, when applicable.
	Flow uint32
	// Arg carries small operation-specific scalars.
	Arg [4]uint64
	// Ptrs references payload data in shared pools.
	Ptrs [MaxPtrs]shm.RichPtr
}

// Chain returns the valid prefix of Ptrs.
func (r *Req) Chain() []shm.RichPtr { return r.Ptrs[:r.NPtr] }

// SetChain copies ptrs into the request, panicking if too long (a
// programming error: chains must be bounded by construction).
func (r *Req) SetChain(ptrs []shm.RichPtr) {
	r.NPtr = 0
	r.AppendChain(ptrs...)
}

// AppendChain copies ptrs after the request's chain, panicking, as SetChain
// does, if the chain would exceed MaxPtrs.
func (r *Req) AppendChain(ptrs ...shm.RichPtr) {
	if n := int(r.NPtr) + len(ptrs); n > MaxPtrs {
		panic(fmt.Sprintf("msg: chain of %d exceeds MaxPtrs", n))
	}
	r.NPtr += uint8(copy(r.Ptrs[r.NPtr:], ptrs))
}

// ChainLen returns the total byte length referenced by the chain.
func (r *Req) ChainLen() int {
	n := 0
	for _, p := range r.Chain() {
		n += int(p.Len)
	}
	return n
}

// Drain returns the requests queued in *q and leaves *q empty on *spare's
// array, the returned one becoming the spare: an outbox drained once per
// loop iteration reuses two arrays instead of growing a new one each time.
// The returned slice is valid until the next Drain of the same queue.
func Drain(q, spare *[]Req) []Req {
	out := *q
	*q, *spare = (*spare)[:0], out
	return out
}

// Reply builds a reply to r with the given op and status, echoing ID and Flow.
func (r *Req) Reply(op Op, status int32) Req {
	return Req{ID: r.ID, Op: op, Status: status, Flow: r.Flow}
}

// Status codes used in replies (POSIX-flavoured, negative like kernel ABIs).
const (
	StatusOK          int32 = 0
	StatusErrAgain    int32 = -11  // EAGAIN: would block
	StatusErrNoBufs   int32 = -105 // ENOBUFS
	StatusErrConnRst  int32 = -104 // ECONNRESET
	StatusErrRefused  int32 = -111 // ECONNREFUSED
	StatusErrInUse    int32 = -98  // EADDRINUSE
	StatusErrNotConn  int32 = -107 // ENOTCONN
	StatusErrInval    int32 = -22  // EINVAL
	StatusErrNoSock   int32 = -9   // EBADF
	StatusErrTimedOut int32 = -110 // ETIMEDOUT
	StatusErrAborted  int32 = -103 // ECONNABORTED: server restarted, op aborted
	StatusErrBlocked  int32 = -13  // EACCES: packet filter blocked
	StatusErrNoRoute  int32 = -113 // EHOSTUNREACH: no live route / next hop unresolvable
)

// PackIfaceName packs up to the first 8 bytes of an interface name into one
// request arg (big-endian, zero-padded), so PF queries and link events can
// carry the interface without a blob. Evaluation interfaces are "ethN".
func PackIfaceName(name string) uint64 {
	var v uint64
	for i := 0; i < 8 && i < len(name); i++ {
		v |= uint64(name[i]) << (8 * uint(7-i))
	}
	return v
}

// UnpackIfaceName is the inverse of PackIfaceName.
func UnpackIfaceName(v uint64) string {
	var b [8]byte
	n := 0
	for i := 0; i < 8; i++ {
		c := byte(v >> (8 * uint(7-i)))
		if c == 0 {
			break
		}
		b[i] = c
		n++
	}
	return string(b[:n])
}
