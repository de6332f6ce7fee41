package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"newtos/internal/kipc"
	"newtos/internal/msg"
	"newtos/internal/pf"
	"newtos/internal/pfeng"
	"newtos/internal/wiring"
)

// PFClient is the control-plane handle for the packet filter (the pfctl
// analogue): rules are added and flushed through the SYSCALL server.
type PFClient struct {
	hub  *wiring.Hub
	ep   *kipc.Endpoint
	next atomic.Uint64
}

// NewPFClient registers a control endpoint named name.
func NewPFClient(hub *wiring.Hub, name string) (*PFClient, error) {
	ep, err := hub.Kern.Register("pfctl/"+name, nil)
	if err != nil {
		return nil, fmt.Errorf("pfclient: %w", err)
	}
	return &PFClient{hub: hub, ep: ep}, nil
}

// Close releases the endpoint.
func (c *PFClient) Close() { c.ep.Close() }

func (c *PFClient) call(req msg.Req) (msg.Req, error) {
	req.ID = c.next.Add(1)
	dst, ok := c.hub.Kern.Lookup(msg.PFFrontdoor)
	if !ok {
		return msg.Req{}, fmt.Errorf("pfclient: no PF frontdoor")
	}
	if err := c.ep.Send(dst, kipc.Msg{Req: req}); err != nil {
		return msg.Req{}, err
	}
	for {
		m, err := c.ep.Receive(5 * time.Second)
		if err != nil {
			return msg.Req{}, err
		}
		if m.Req.ID == req.ID {
			return m.Req, nil
		}
	}
}

// AddRule installs one rule.
func (c *PFClient) AddRule(rule pfeng.Rule) error {
	req, err := pf.PackRule(rule)
	if err != nil {
		return err
	}
	rep, err := c.call(req)
	if err != nil {
		return err
	}
	if rep.Status != msg.StatusOK {
		return fmt.Errorf("pfclient: add rule: status %d", rep.Status)
	}
	return nil
}

// Flush removes all rules.
func (c *PFClient) Flush() error {
	rep, err := c.call(msg.Req{Op: msg.OpPFRuleFlush})
	if err != nil {
		return err
	}
	if rep.Status != msg.StatusOK {
		return fmt.Errorf("pfclient: flush: status %d", rep.Status)
	}
	return nil
}

// Stats returns (passed, blocked, stateHits, rules).
func (c *PFClient) Stats() (uint64, uint64, uint64, int, error) {
	rep, err := c.call(msg.Req{Op: msg.OpPFStats})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return rep.Arg[0], rep.Arg[1], rep.Arg[2], int(rep.Arg[3]), nil
}
