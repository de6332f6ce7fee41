// Package liveup implements zero-downtime live update: the planned
// drain-and-handoff protocol that swaps a running engine for a new
// incarnation — the paper's §V deliberate-update scenario (patching the
// buggy MS11-083 UDP component under live traffic), as opposed to the
// crash-recovery path the reincarnation server drives.
//
// The protocol has four phases, measured end to end (trace.HandoffPhases):
//
//  1. Drain — the old engine quiesces at a batch boundary: bounded Poll
//     rounds consume inbox batches and flush the edges. Inboxes need NOT
//     run dry: the successor inherits the very same SPSC queues, so
//     anything peers push during the swap is simply consumed after it.
//  2. Transfer — the old incarnation captures its complete live state as a
//     Payload on the proc handoff channel — an explicit state-transfer
//     message, not a storage round-trip. The engine (pcbs, flows, listener
//     tables, in-flight request database, parked timer deadlines)
//     crosses serialized, as one blob only the engine's own codec reads;
//     staged output the channels refused and the shared-memory objects
//     that survive the swap by construction (header pools, per-socket
//     sockbufs) cross as the Go values they are — the channel is
//     in-process, and every rich pointer in the blob stays valid because
//     the pools never reset.
//  3. Rewire — the successor's Init re-points the wiring: it inherits the
//     predecessor's doorbell (proc.Runtime.Bell), so every duplex peers
//     hold keeps ringing the right bell, and wiring.Ports.Resume keeps
//     subscriptions and port generations frozen — peers never observe the
//     swap, so none of their crash-recovery actions (abort, resubmit,
//     EvError pokes) run. The port-generation machinery stays armed
//     underneath as the safety net for a real peer crash mid-swap.
//  4. Resume — the new engine re-arms its timers from the transferred
//     deadlines on a fresh wheel and re-announces current readiness for
//     nonblocking sockets: spurious edges, never lost ones.
//
// The Coordinator drives upgrades through reinc.Monitor.Upgrade — planned
// swaps are their own event kind and never count toward the restart
// budget — and records the phase timings.
package liveup

import (
	"newtos/internal/msg"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// Payload is what crosses the proc handoff channel for a transport server.
type Payload struct {
	// Engine is the engine's serialized live state (its HandoffState blob).
	Engine []byte
	// ToIP and ToSC are requests the predecessor staged but the queues did
	// not accept; the successor stages them first, so they leave in order
	// ahead of anything it produces itself.
	ToIP, ToSC []msg.Req
	// Handles are the live shared-memory objects the successor adopts.
	Handles Handles
}

// Handles are pointers that cannot (and need not) be serialized: the
// backing objects live in the node's shm.Space, which outlives
// incarnations, so the successor adopts them in place. Every rich pointer
// in the engine blob resolves against these pools unchanged.
type Handles struct {
	// HdrPool is the engine's packet-header pool; in-flight segment
	// headers and un-flushed sends point into it.
	HdrPool *shm.Pool
	// SockBufs maps socket id to its TX buffer; stream chunks and
	// un-recycled send payloads point into these.
	SockBufs map[uint32]*sockbuf.Buf
}
