// Package tcpsrv is the TCP server: the transport shell around tcpeng.
// TCP is deliberately quarantined as the one component whose state is too
// large and too fast-changing to recover (paper Table I); isolating it
// keeps its crashes from taking IP, UDP, PF or the drivers down with it.
//
// The server scales across cores by flow-hash sharding (docs/ARCHITECTURE.md
// "Sharded TCP"): Config.Shard/Shards place one instance in a set of N
// independent engines, each behind its own server loop, doorbell, and SPSC
// channel pair to IP and to the SYSCALL server. A shard persists its
// recoverable state under shard-scoped storage keys (StorageKeyFor,
// FlowsKeyFor), so one shard's crash and recovery never touches another
// shard's established connections.
package tcpsrv

import (
	"fmt"

	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/shm"
	"newtos/internal/tcpeng"
	"newtos/internal/transport"
	"newtos/internal/wiring"
)

// BufKeyPfx prefixes the registry names of per-socket shared TX buffers.
const BufKeyPfx = "sockbuf/tcp/"

// StorageKeyFor is the storage-server key one shard's recoverable socket
// state (its listeners) lives under. Keys are per-shard so
// a restarting shard recovers exactly its own listeners and nothing else.
func StorageKeyFor(shard int) string { return fmt.Sprintf("tcp/%d/sockets", shard) }

// FlowsKeyFor is the storage-server key one shard's active-flow dump (for
// PF conntrack rebuild) lives under. PF finds it, whatever the shard count,
// by pfeng.FlowsKeySuffix.
func FlowsKeyFor(shard int) string { return fmt.Sprintf("tcp/%d%s", shard, pfeng.FlowsKeySuffix) }

// ShardName returns the component (process) name of TCP shard k in an
// n-shard node: the historical "tcp" when n <= 1, "tcp<k>" otherwise. It is
// the single source of the shard-naming contract; the edge names below and
// every other package derive from it.
func ShardName(k, n int) string {
	if n <= 1 {
		return "tcp"
	}
	return fmt.Sprintf("tcp%d", k)
}

// IPEdge names shard k's edge to the IP server and the peer component the
// creator (IP) exports it towards.
func IPEdge(k, n int) (edge, peer string) { return "ip-" + ShardName(k, n), ShardName(k, n) }

// SCEdge names shard k's edge to the SYSCALL server and the peer component.
func SCEdge(k, n int) (edge, peer string) { return "sc-" + ShardName(k, n), ShardName(k, n) }

// Config assembles a TCP server.
type Config struct {
	LocalIP netpkt.IPAddr
	// SrcFor selects the source address per destination (multi-homed).
	SrcFor  func(netpkt.IPAddr) netpkt.IPAddr
	Offload bool
	TSO     bool
	// Shard / Shards place this server in a flow-hash sharded deployment:
	// it becomes shard Shard of Shards, attaching the per-shard edges
	// ("ip-tcp<k>", "sc-tcp<k>") and persisting under per-shard storage
	// keys. Shards <= 1 keeps the historical single-server layout (edges
	// "ip-tcp"/"sc-tcp", shard-0 storage keys).
	Shard  int
	Shards int
}

// Server is one TCP server incarnation.
type Server = transport.Server[*tcpeng.Engine]

// New creates a TCP server incarnation.
func New(cfg Config, ports *wiring.Ports) *Server {
	ipEdge, _ := IPEdge(cfg.Shard, cfg.Shards)
	scEdge, _ := SCEdge(cfg.Shard, cfg.Shards)
	return transport.New(transport.Spec[*tcpeng.Engine]{
		Name:    "tcpsrv",
		HdrPool: fmt.Sprintf("tcp.%d.hdr", cfg.Shard), HdrChunks: 1024,
		IPEdge: ipEdge, SCEdge: scEdge,
		StorageKey: StorageKeyFor(cfg.Shard), FlowsKey: FlowsKeyFor(cfg.Shard), BufKeyPfx: BufKeyPfx,
		New: func(env transport.Env, hdrPool *shm.Pool) (*tcpeng.Engine, transport.Engine) {
			e := tcpeng.New(tcpeng.Config{
				Space: env.Space, LocalIP: cfg.LocalIP, SrcFor: cfg.SrcFor,
				Offload: cfg.Offload, TSO: cfg.TSO,
				ShardID: cfg.Shard, ShardCount: cfg.Shards,
				PublishBuf: env.PublishBuf, UnpublishBuf: env.UnpublishBuf, SaveState: env.SaveState,
			}, hdrPool)
			return e, e
		},
	}, ports)
}
