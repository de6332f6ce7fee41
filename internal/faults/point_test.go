package faults

import (
	"testing"
	"time"
)

// check runs one Check and reports the Injected value it panicked with, if
// it did.
func check(p *Point) (inj *Injected) {
	defer func() {
		if r := recover(); r != nil {
			v := r.(Injected)
			inj = &v
		}
	}()
	p.Check()
	return nil
}

func TestDisarmedPointDoesNothing(t *testing.T) {
	p := NewPoint("ip", nil)
	if inj := check(p); inj != nil || p.Fired() {
		t.Fatalf("a disarmed point fired: %v", inj)
	}
	p.Arm(Crash)
	p.Disarm()
	if inj := check(p); inj != nil || p.Fired() {
		t.Fatalf("a point disarmed before its Check fired: %v", inj)
	}
}

// A crash fires once: the panic carries the component and the kind, and the
// next incarnation's loop, should it share the point, is not hit again.
func TestCrashFiresOnce(t *testing.T) {
	p := NewPoint("tcp", nil)
	p.Arm(Crash)
	inj := check(p)
	if inj == nil || inj.Component != "tcp" || inj.Kind != Crash {
		t.Fatalf("Check panicked with %v, want an injected tcp crash", inj)
	}
	if !p.Fired() {
		t.Fatal("Fired() is false after the fault went off")
	}
	if again := check(p); again != nil {
		t.Fatalf("the one-shot fault fired a second time: %v", again)
	}
	p.Arm(Crash) // re-arming makes it live again
	if check(p) == nil || !p.Fired() {
		t.Fatal("a re-armed point did not fire")
	}
}

// Arm rings the component's loop: an idle component has no other reason to
// run the Check that fires the fault.
func TestArmRingsTheLoop(t *testing.T) {
	rings := 0
	p := NewPoint("storage", func() { rings++ })
	p.Arm(Crash)
	if rings != 1 {
		t.Fatalf("Arm rang %d times, want once", rings)
	}
	if check(p); !p.Fired() {
		t.Fatal("the armed fault did not fire at the Check the ring brought")
	}
}

// A hang parks the component's goroutine — no panic, no return — until the
// supervisor abandons the incarnation; it then unwinds like a crash.
func TestHangParksUntilReleased(t *testing.T) {
	p := NewPoint("udp", nil)
	p.Arm(Hang)
	unwound := make(chan *Injected, 1)
	go func() { unwound <- check(p) }()
	select {
	case inj := <-unwound:
		t.Fatalf("a hung component returned on its own: %v", inj)
	case <-time.After(50 * time.Millisecond):
	}
	if !p.Fired() {
		t.Fatal("Fired() is false while the component hangs")
	}
	p.Release()
	p.Release() // safe to repeat
	select {
	case inj := <-unwound:
		if inj == nil || inj.Kind != Hang || inj.Component != "udp" {
			t.Fatalf("released hang unwound with %v, want an injected udp hang", inj)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Release did not unwind the hung goroutine")
	}
}

func TestKindAndInjectedRender(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", Crash: "crash", Hang: "hang", Kind(9): "kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := (Injected{Component: "ip", Kind: Hang}).Error(); got != "injected hang fault in ip" {
		t.Errorf("Injected.Error() = %q", got)
	}
}
