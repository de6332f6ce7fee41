package layers

import (
	"errors"
	"sort"
	"time"

	"newtos/internal/channel"
	"newtos/internal/msg"
	"newtos/internal/spsc"
)

// driveChannel measures the inter-server channel: moving a request through
// a queue one at a time and in batches of 64 (one doorbell per batch), the
// bare SPSC ring under it, and how long a parked consumer takes to run
// after its doorbell is rung — the cost rr_small pays on every hop, because
// between two small messages every server loop has gone to sleep.
func driveChannel(b *bench) error {
	bell := channel.NewDoorbell()
	out, in, err := channel.NewQueue(channel.DefaultDepth, bell)
	if err != nil {
		return err
	}
	lost := false
	one := b.run("channel.send_b1", func() int {
		for i := 0; i < 64; i++ {
			ok := out.Send(msg.Req{ID: uint64(i)})
			_, ok2 := in.Recv()
			lost = lost || !ok || !ok2
		}
		return 64
	})
	b.rep.add("channel.send_ns_per_msg_b1", one.ns, "ns")
	batch := make([]msg.Req, 64)
	dst := make([]msg.Req, 64)
	many := b.run("channel.send_b64", func() int {
		lost = lost || out.SendBatch(batch) != len(batch) || in.RecvBatch(dst) != len(dst)
		return len(batch)
	})
	b.rep.add("channel.send_ns_per_msg_b64", many.ns, "ns")

	ring, err := spsc.New[uint64](channel.DefaultDepth)
	if err != nil {
		return err
	}
	ops := b.run("spsc.ring", func() int {
		for i := 0; i < 64; i++ {
			ok := ring.TryEnqueue(uint64(i))
			_, ok2 := ring.TryDequeue()
			lost = lost || !ok || !ok2
		}
		return 128
	})
	b.rep.add("spsc.ns_per_op", ops.ns, "ns")
	if lost {
		return errors.New("a queue lost or refused a message")
	}

	// Wake latency: the consumer parks on its doorbell exactly as a server
	// loop does (arm, re-check, wait); the producer stamps each request.
	woke := make(chan time.Duration)
	stop := make(chan struct{})
	done := make(chan struct{})
	epoch := time.Now()
	go func() {
		defer close(done)
		for {
			bell.Arm()
			if in.Empty() {
				bell.Wait(10 * time.Millisecond)
			} else {
				bell.Disarm()
			}
			for {
				r, ok := in.Recv()
				if !ok {
					break
				}
				select {
				case woke <- time.Since(epoch) - time.Duration(r.Arg[0]):
				case <-stop:
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wakes []float64
	start := time.Now()
	for time.Since(start) < 2*b.budget {
		time.Sleep(100 * time.Microsecond) // let the consumer park
		r := msg.Req{}
		r.Arg[0] = uint64(time.Since(epoch))
		if !out.Send(r) {
			lost = true
			break
		}
		wakes = append(wakes, float64(<-woke)/1e3)
	}
	close(stop)
	<-done
	if lost || len(wakes) == 0 {
		return errors.New("wake-latency probe sent nothing")
	}
	b.rep.Spans = append(b.rep.Spans, Span{
		Name: "channel.wake", Parent: "layers",
		Start: int64(start.Sub(b.epoch)), End: int64(time.Since(b.epoch)), N: int64(len(wakes)),
	})
	sort.Float64s(wakes)
	b.rep.add("channel.wake_us_p50", wakes[len(wakes)/2], "us")
	b.rep.add("channel.wake_us_p99", wakes[len(wakes)*99/100], "us")
	return nil
}
