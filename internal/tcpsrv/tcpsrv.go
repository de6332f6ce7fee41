// Package tcpsrv is the TCP server: the transport shell around tcpeng.
// TCP is deliberately quarantined as the one component whose state is too
// large and too fast-changing to recover (paper Table I); isolating it
// keeps its crashes from taking IP, UDP, PF or the drivers down with it.
package tcpsrv

import (
	"newtos/internal/netpkt"
	"newtos/internal/pfeng"
	"newtos/internal/shm"
	"newtos/internal/tcpeng"
	"newtos/internal/transport"
	"newtos/internal/wiring"
)

// Storage keys.
const (
	StorageKey = "tcp/sockets"
	FlowsKey   = "tcp" + pfeng.FlowsKeySuffix
	BufKeyPfx  = "sockbuf/tcp/"
)

// Config assembles a TCP server.
type Config struct {
	LocalIP netpkt.IPAddr
	// SrcFor selects the source address per destination (multi-homed).
	SrcFor  func(netpkt.IPAddr) netpkt.IPAddr
	Offload bool
	TSO     bool
}

// Server is one TCP server incarnation.
type Server = transport.Server[*tcpeng.Engine]

// New creates a TCP server incarnation.
func New(cfg Config, ports *wiring.Ports) *Server {
	return transport.New(transport.Spec[*tcpeng.Engine]{
		Name:    "tcpsrv",
		HdrPool: "tcp.hdr", HdrChunks: 1024,
		IPEdge: "ip-tcp", SCEdge: "sc-tcp",
		StorageKey: StorageKey, FlowsKey: FlowsKey, BufKeyPfx: BufKeyPfx,
		New: func(env transport.Env, hdrPool *shm.Pool) (*tcpeng.Engine, transport.Engine) {
			e := tcpeng.New(tcpeng.Config{
				Space: env.Space, LocalIP: cfg.LocalIP, SrcFor: cfg.SrcFor,
				Offload: cfg.Offload, TSO: cfg.TSO,
				PublishBuf: env.PublishBuf, UnpublishBuf: env.UnpublishBuf, SaveState: env.SaveState,
			}, hdrPool)
			return e, e
		},
	}, ports)
}
