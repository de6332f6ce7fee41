package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"newtos/internal/core"
	"newtos/internal/faults"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

// CampaignOpts tunes the fault-injection campaign (paper §VI-B).
type CampaignOpts struct {
	// Runs is how many fault injections to perform (paper: 100).
	Runs int
	// Seed makes the campaign reproducible.
	Seed int64
	// Weights gives each component's share of injections, reproducing
	// Table III's skew ("because of different fraction of active code,
	// some components are more likely to crash than the others").
	Weights map[string]int
	// HangFraction is the share of faults that hang instead of crash.
	HangFraction float64
}

func (o *CampaignOpts) fill() {
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.Weights == nil {
		// Paper Table III: TCP 25, UDP 10, IP 24, PF 25, Driver 16.
		o.Weights = map[string]int{
			core.CompTCP: 25, core.CompUDP: 10, core.CompIP: 24,
			core.CompPF: 25, "eth0": 16,
		}
	}
	if o.HangFraction == 0 {
		o.HangFraction = 0.15
	}
}

// RunOutcome classifies one injection, mirroring Table IV's categories.
type RunOutcome struct {
	Component string
	Kind      faults.Kind
	// Recovered: the reincarnation server restarted the component.
	Recovered bool
	// TCPSurvived: the pre-existing TCP connection kept working.
	TCPSurvived bool
	// Reachable: a NEW TCP connection could be established afterwards.
	Reachable bool
	// UDPTransparent: the pre-existing UDP socket kept working without
	// being reopened.
	UDPTransparent bool
	// RebootNeeded: the system did not recover within the deadline.
	RebootNeeded bool
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Outcomes []RunOutcome
	// Distribution is Table III: crashes per component.
	Distribution map[string]int
}

// Counts produces the Table IV row values.
func (r *CampaignResult) Counts() (transparent, reachable, tcpBroke, udpOK, reboot int) {
	for _, o := range r.Outcomes {
		if o.RebootNeeded {
			reboot++
			continue
		}
		if o.TCPSurvived && o.UDPTransparent {
			transparent++
		}
		if o.Reachable {
			reachable++
		}
		if !o.TCPSurvived {
			tcpBroke++
		}
		if o.UDPTransparent {
			udpOK++
		}
	}
	return
}

// RunCampaign executes the fault-injection campaign: every run boots a
// fresh two-node system, establishes the paper's workload (an SSH-like TCP
// connection plus periodic DNS-like UDP queries), injects one fault into a
// weighted-random component of the serving node, and classifies the
// outcome.
func RunCampaign(opts CampaignOpts) (*CampaignResult, error) {
	opts.fill()
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &CampaignResult{Distribution: make(map[string]int)}

	// Build the weighted component lottery.
	var lottery []string
	for comp, w := range opts.Weights {
		for i := 0; i < w; i++ {
			lottery = append(lottery, comp)
		}
	}

	for run := 0; run < opts.Runs; run++ {
		comp := lottery[rng.Intn(len(lottery))]
		kind := faults.Crash
		if rng.Float64() < opts.HangFraction {
			kind = faults.Hang
		}
		outcome, err := oneRun(comp, kind, run)
		if err != nil {
			return nil, fmt.Errorf("campaign run %d (%s): %w", run, comp, err)
		}
		res.Outcomes = append(res.Outcomes, outcome)
		res.Distribution[comp]++
	}
	return res, nil
}

// oneRun executes a single injection experiment.
func oneRun(comp string, kind faults.Kind, run int) (RunOutcome, error) {
	out := RunOutcome{Component: comp, Kind: kind}
	cfg := core.SplitTSO()
	cfg.HeartbeatMiss = 120 * time.Millisecond
	lan, err := core.NewLAN(cfg, 1, nic.WireConfig{})
	if err != nil {
		return out, err
	}
	defer lan.Stop()
	if err := lan.Start(); err != nil {
		return out, err
	}

	// SSH-like TCP echo service on B.
	srvErr := make(chan error, 2)
	ready := make(chan struct{})
	go func() {
		cli, err := sock.NewClient(lan.B.Hub, "sshd")
		if err != nil {
			srvErr <- err
			close(ready)
			return
		}
		l, err := cli.Socket(sock.TCP)
		if err != nil {
			srvErr <- err
			close(ready)
			return
		}
		if l.Bind(22) != nil || l.Listen(8) != nil {
			srvErr <- fmt.Errorf("sshd setup")
			close(ready)
			return
		}
		close(ready)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 8192)
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
		}
	}()
	// DNS-like UDP responder on B.
	go func() {
		cli, err := sock.NewClient(lan.B.Hub, "named")
		if err != nil {
			return
		}
		u, err := cli.Socket(sock.UDP)
		if err != nil || u.Bind(53) != nil {
			return
		}
		buf := make([]byte, 2048)
		for {
			n, src, sport, err := u.RecvFrom(buf)
			if err != nil {
				continue
			}
			_, _ = u.SendTo(buf[:n], src, sport)
		}
	}()
	<-ready

	cli, err := sock.NewClient(lan.A.Hub, "client")
	if err != nil {
		return out, err
	}
	cli.CallTimeout = 5 * time.Second
	ssh, err := cli.Socket(sock.TCP)
	if err != nil {
		return out, err
	}
	if err := ssh.Connect(lan.IPOf("b", 0), 22); err != nil {
		return out, fmt.Errorf("initial connect: %w", err)
	}
	echo := func(s *sock.Socket, tag string) bool {
		if _, err := s.Send([]byte(tag)); err != nil {
			return false
		}
		buf := make([]byte, 256)
		n, err := s.Recv(buf)
		return err == nil && string(buf[:n]) == tag
	}
	if !echo(ssh, "warmup") {
		return out, fmt.Errorf("warmup echo failed")
	}
	resolver, err := cli.Socket(sock.UDP)
	if err != nil {
		return out, err
	}
	_ = resolver.Bind(5353)
	udpQuery := func(tag string) bool {
		for try := 0; try < 8; try++ {
			if _, err := resolver.SendTo([]byte(tag), lan.IPOf("b", 0), 53); err != nil {
				continue
			}
			buf := make([]byte, 256)
			n, _, _, err := resolver.RecvFrom(buf)
			if err == nil && string(buf[:n]) == tag {
				return true
			}
		}
		return false
	}
	if !udpQuery("warmup-dns") {
		return out, fmt.Errorf("warmup dns failed")
	}

	// Inject the fault while traffic flows.
	stop := make(chan struct{})
	go func() { // background stress on the TCP connection
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !echo(ssh, "stress") {
				return
			}
		}
	}()
	p, err := crashTarget(lan.B, comp)
	if err != nil {
		close(stop)
		return out, err
	}
	p.Fault().Arm(kind)

	// Wait for the reincarnation server to act.
	deadline := time.Now().Add(4 * time.Second)
	for len(lan.B.Monitor.Events()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	out.Recovered = len(lan.B.Monitor.Events()) > 0
	if !out.Recovered {
		out.RebootNeeded = true
		return out, nil
	}
	time.Sleep(150 * time.Millisecond) // rewiring settles

	// Classify, per the paper's methodology: existing ssh connection,
	// new connections, and the resolver's UDP socket.
	out.TCPSurvived = echo(ssh, "post-crash")
	nc, err := cli.Socket(sock.TCP)
	if err == nil {
		if err := nc.Connect(lan.IPOf("b", 0), 22); err == nil {
			out.Reachable = echo(nc, "new-conn")
		}
	}
	out.UDPTransparent = udpQuery(fmt.Sprintf("dns-%d", run))
	return out, nil
}
