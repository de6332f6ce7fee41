package storage

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/channel"
	"newtos/internal/proc"
)

func TestPutGetIsolation(t *testing.T) {
	s := NewStore()
	val := []byte("routing table")
	s.Put("ip/config", val)
	val[0] = 'X' // caller mutates after Put
	got, ok := s.Get("ip/config")
	if !ok || !bytes.Equal(got, []byte("routing table")) {
		t.Fatalf("get = %q, %v (must be isolated from caller mutation)", got, ok)
	}
	got[0] = 'Y' // caller mutates the returned copy
	got2, _ := s.Get("ip/config")
	if !bytes.Equal(got2, []byte("routing table")) {
		t.Fatal("returned slice aliases the store")
	}
}

func TestKeysPrefix(t *testing.T) {
	s := NewStore()
	s.Put("tcp/sockets", nil)
	s.Put("tcp/flows", nil)
	s.Put("udp/sockets", nil)
	if got := len(s.Keys("tcp/")); got != 2 {
		t.Fatalf("Keys(tcp/) = %d", got)
	}
	if got := len(s.Keys("")); got != 3 {
		t.Fatalf("Keys() = %d", got)
	}
}

func TestCrashWipesAndBumpsGeneration(t *testing.T) {
	st := NewStore()
	st.Put("pf/rules", []byte("rules"))
	gen0 := st.Gen()

	p := proc.New("storage", func() proc.Service { return NewService(st) },
		nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// A restart (as after a crash) wipes everything: "every other server
	// has to store its state again".
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	if _, ok := st.Get("pf/rules"); ok {
		t.Fatal("data survived the storage crash")
	}
	if st.Gen() == gen0 {
		t.Fatal("generation did not change")
	}
	// Fresh start (first boot) does not wipe.
	st.Put("again", []byte("x"))
	puts, gets := st.Stats()
	if puts == 0 || gets != 0 {
		t.Fatalf("stats = %d, %d", puts, gets)
	}
}

// TestWipeRingsWatchers: a loop polls only when its doorbell rings, so a
// storage crash must ring every watcher, after the generation has moved.
func TestWipeRingsWatchers(t *testing.T) {
	st := NewStore()
	gen0 := st.Gen()
	bells := []*channel.Doorbell{channel.NewDoorbell(), channel.NewDoorbell(), channel.NewDoorbell()}
	var sawNewGen atomic.Int32
	for _, b := range bells {
		st.Watch(func() {
			if st.Gen() != gen0 {
				sawNewGen.Add(1)
			}
			b.Ring()
		})
	}
	p := proc.New("storage", func() proc.Service { return NewService(st) }, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	for i, b := range bells {
		if b.Posts() != 0 {
			t.Fatalf("watcher %d rung by a fresh start", i)
		}
	}
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	for i, b := range bells {
		if b.Posts() != 1 {
			t.Fatalf("watcher %d rung %d times by one wipe, want 1", i, b.Posts())
		}
	}
	if int(sawNewGen.Load()) != len(bells) {
		t.Fatalf("%d of %d watchers rung before the generation moved", len(bells)-int(sawNewGen.Load()), len(bells))
	}
}

func TestServiceIsQuiescent(t *testing.T) {
	st := NewStore()
	svc := NewService(st)
	if svc.Poll(time.Now()) {
		t.Fatal("storage service claims work")
	}
	if !svc.Deadline(time.Now()).IsZero() {
		t.Fatal("storage service has timers")
	}
	svc.Stop()
}
