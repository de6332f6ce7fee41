package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"newtos/internal/core"
	"newtos/internal/faults"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

// CampaignOpts tunes the fault-injection campaign (paper §VI-B).
type CampaignOpts struct {
	// Runs is how many fault injections to perform (paper: 100).
	Runs int
	// Seed makes the campaign reproducible.
	Seed int64
}

// campaignWeights gives each component's share of injections, reproducing
// Table III's skew ("because of different fraction of active code, some
// components are more likely to crash than the others"): TCP 25, UDP 10,
// IP 24, PF 25, Driver 16. The lottery is laid out in this order, sorted by
// name, so a seed names the same campaign in every process.
var campaignWeights = []struct {
	comp   string
	weight int
}{{"eth0", 16}, {core.CompIP, 24}, {core.CompPF, 25}, {core.CompTCP, 25}, {core.CompUDP, 10}}

// hangFraction is the share of faults that hang instead of crash.
const hangFraction = 0.15

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
	res := &CampaignResult{Distribution: make(map[string]int)}
	for run, inj := range campaignPlan(opts) {
		outcome, err := oneRun(inj.comp, inj.kind, run)
		if err != nil {
			return nil, fmt.Errorf("campaign run %d (%s): %w", run, inj.comp, err)
		}
		res.Outcomes = append(res.Outcomes, outcome)
		res.Distribution[inj.comp]++
	}
	return res, nil
}

// injection is one planned fault: where and what.
type injection struct {
	comp string
	kind faults.Kind
}

// campaignPlan draws the campaign's injections. It is a pure function of
// opts.
func campaignPlan(opts CampaignOpts) []injection {
	if opts.Runs == 0 {
		opts.Runs = 100
	}
	var lottery []string
	for _, w := range campaignWeights {
		for i := 0; i < w.weight; i++ {
			lottery = append(lottery, w.comp)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	plan := make([]injection, opts.Runs)
	for run := range plan {
		plan[run] = injection{comp: lottery[rng.Intn(len(lottery))], kind: faults.Crash}
		if rng.Float64() < hangFraction {
			plan[run].kind = faults.Hang
		}
	}
	return plan
}

// udpQuery is the resolver's DNS-like lookup: up to 8 tries, each bounded by
// a read deadline, so a shed datagram costs a retry and a dead server costs
// a bounded wait and a false.
func udpQuery(resolver *sock.Socket, dst netpkt.IPAddr, port uint16, tag string) bool {
	buf := make([]byte, 256)
	for try := 0; try < 8; try++ {
		if udpRound(resolver, dst, port, []byte(tag), buf, 250*time.Millisecond) {
			return true
		}
	}
	return false
}

// oneRun executes a single injection experiment.
func oneRun(comp string, kind faults.Kind, run int) (RunOutcome, error) {
	out := RunOutcome{Component: comp, Kind: kind}
	cfg := core.SplitTSO()
	cfg.HeartbeatMiss = 120 * time.Millisecond
	b, err := newBed(cfg, 1, nic.WireConfig{}, core.LANOpts{}, 5*time.Second)
	if err != nil {
		return out, err
	}
	defer b.close()
	lan, server := b.lan, b.lan.IPOf("b", 0)
	victim, err := crashTarget(lan.B, comp)
	if err != nil {
		return out, err
	}

	// SSH-like TCP echo service and DNS-like UDP responder on B.
	sshd, err := b.client(lan.B, "sshd")
	if err != nil {
		return out, err
	}
	l, err := listen(sshd, 22, 8)
	if err != nil {
		return out, err
	}
	b.echoServer(l)
	named, err := b.client(lan.B, "named")
	if err != nil {
		return out, err
	}
	u, err := bindUDP(named, 53)
	if err != nil {
		return out, err
	}
	b.udpEchoServer(u)

	cli, err := b.client(lan.A, "client")
	if err != nil {
		return out, err
	}
	ssh, err := dial(cli, sock.TCP, server, 22)
	if err != nil {
		return out, fmt.Errorf("initial: %w", err)
	}
	// The deadline turns a connection the fault wedged silently into a
	// broken one instead of a run that never ends.
	echo := func(s *sock.Socket, tag string) bool {
		_ = s.SetReadDeadline(time.Now().Add(5 * time.Second))
		return echoRound(s, []byte(tag), make([]byte, len(tag))) == nil
	}
	if !echo(ssh, "warmup") {
		return out, fmt.Errorf("warmup echo failed")
	}
	resolver, err := bindUDP(cli, 5353)
	if err != nil {
		return out, err
	}
	if !udpQuery(resolver, server, 53, "warmup-dns") {
		return out, fmt.Errorf("warmup dns failed")
	}

	// Inject the fault while traffic flows: background stress on the TCP
	// connection, which must be off it again before it is classified.
	stop, stressed := make(chan struct{}), make(chan struct{})
	b.run(func() {
		defer close(stressed)
		for echo(ssh, "stress") {
			select {
			case <-stop:
				return
			default:
			}
		}
	})
	victim.Fault().Arm(kind)

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
	<-stressed

	// Classify, per the paper's methodology: existing ssh connection,
	// new connections, and the resolver's UDP socket.
	out.TCPSurvived = echo(ssh, "post-crash")
	if nc, err := dial(cli, sock.TCP, server, 22); err == nil {
		out.Reachable = echo(nc, "new-conn")
	}
	out.UDPTransparent = udpQuery(resolver, server, 53, fmt.Sprintf("dns-%d", run))
	return out, nil
}
