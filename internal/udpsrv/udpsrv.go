// Package udpsrv is the UDP server: the transport shell around udpeng.
// UDP's per-socket state is tiny and slow-changing, making it fully
// recoverable (paper Table I) — the component the paper highlights when
// discussing the MS11-083 Windows UDP vulnerability: in NewtOS the buggy
// UDP server is simply replaced while TCP traffic keeps flowing, either
// after a crash (the socket table is recovered from the storage server and
// the sockets recreated) or as a planned live update (the successor adopts
// queued datagrams, parked recvs, in-flight sends and buffer handles).
package udpsrv

import (
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/shm"
	"newtos/internal/transport"
	"newtos/internal/udpeng"
	"newtos/internal/wiring"
)

// Storage keys.
const (
	StorageKey = "udp/sockets"
	FlowsKey   = "udp" + pfeng.FlowsKeySuffix
	BufKeyPfx  = "sockbuf/udp/"
)

// Config assembles a UDP server.
type Config struct {
	LocalIP netpkt.IPAddr
	// SrcFor selects the source address per destination (multi-homed).
	SrcFor  func(netpkt.IPAddr) netpkt.IPAddr
	Offload bool
}

// Server is one UDP server incarnation.
type Server = transport.Server[*udpeng.Engine]

// engine gives udpeng the method set the shell drives: UDP keeps no clock
// and no timers.
type engine struct{ *udpeng.Engine }

func (e engine) FromIP(r msg.Req, _ time.Time)    { e.Engine.FromIP(r) }
func (e engine) FromFront(r msg.Req, _ time.Time) { e.Engine.FromFront(r) }
func (e engine) Tick(time.Time)                   { e.Engine.Tick() }
func (e engine) Deadline(time.Time) time.Time     { return time.Time{} }

// New creates a UDP server incarnation.
func New(cfg Config, ports *wiring.Ports) *Server {
	return transport.New(transport.Spec[*udpeng.Engine]{
		Name:    "udpsrv",
		HdrPool: "udp.hdr", HdrChunks: 512,
		IPEdge: "ip-udp", SCEdge: "sc-udp",
		StorageKey: StorageKey, FlowsKey: FlowsKey, BufKeyPfx: BufKeyPfx,
		New: func(env transport.Env, hdrPool *shm.Pool) (*udpeng.Engine, transport.Engine) {
			e := udpeng.New(udpeng.Config{
				Space: env.Space, LocalIP: cfg.LocalIP, SrcFor: cfg.SrcFor, Offload: cfg.Offload,
				PublishBuf: env.PublishBuf, UnpublishBuf: env.UnpublishBuf, SaveState: env.SaveState,
			}, hdrPool)
			return e, engine{e}
		},
	}, ports)
}
