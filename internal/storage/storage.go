// Package storage implements the state storage server (paper §V-D): "a
// storage process dedicated to storing interesting state of other
// components as key and value pairs". Restartable servers park whatever
// they need for recovery here (IP configuration, UDP socket 4-tuples, TCP
// socket states, PF rules) and read it back when they come up in restart
// mode.
//
// The storage server itself can crash. Its state is NOT persistent across
// its own restarts — per the paper, "if the storage process itself crashes
// and comes up, every other server has to store its state again" — so the
// facade exposes a generation counter that clients watch
// (wiring.Ports.StoreWiped) to know when to re-store, and rings every
// watcher's doorbell when a wipe bumps it.
package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/proc"
)

// Store is the stable facade other servers hold. It survives storage-server
// restarts; the data does not.
type Store struct {
	// gen is read by every watcher's loop on each Poll, without the lock.
	gen atomic.Uint32

	mu       sync.Mutex
	data     map[string][]byte
	puts     uint64
	gets     uint64
	watchers []func()
}

// NewStore returns an empty store facade.
func NewStore() *Store {
	return &Store{data: make(map[string][]byte)}
}

// Put saves value under key (a copy is taken).
func (s *Store) Put(key string, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = cp
	s.puts++
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	s.gets++
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

// Keys returns all keys with the given prefix.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	return out
}

// Gen returns the storage generation; it bumps when a storage-server crash
// wipes the data, telling every client to re-store its state.
func (s *Store) Gen() uint32 { return s.gen.Load() }

// Watch registers ring to run after every wipe, once the generation has
// moved: a watcher's loop that stopped polling learns of the wipe from its
// doorbell, as it learns of any other input.
func (s *Store) Watch(ring func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchers = append(s.watchers, ring)
}

// Stats returns cumulative put/get counts.
func (s *Store) Stats() (puts, gets uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.gets
}

// wipe clears all data (storage server crashed), bumps the generation and
// rings the watchers.
func (s *Store) wipe() {
	s.mu.Lock()
	s.data = make(map[string][]byte)
	s.gen.Add(1)
	watchers := s.watchers
	s.mu.Unlock()
	for _, ring := range watchers {
		ring()
	}
}

// Service is the storage server's process incarnation. Its Poll does no
// work (the facade is synchronous — modelling kernel-IPC sendrec to the
// storage process) but it carries the fault point and is watched for hangs, and a
// restart wipes the data.
type Service struct {
	backing *Store
}

var _ proc.Service = (*Service)(nil)

// NewService returns the incarnation factory's product for backing.
func NewService(backing *Store) *Service {
	return &Service{backing: backing}
}

// Init wipes the backing data when coming up after a crash.
func (s *Service) Init(rt *proc.Runtime, restart bool) error {
	if restart {
		s.backing.wipe()
	}
	return nil
}

// Poll performs no work; the facade is synchronous.
func (s *Service) Poll(now time.Time) bool { return false }

// Deadline reports no timers.
func (s *Service) Deadline(now time.Time) time.Time { return time.Time{} }

// Stop is a no-op.
func (s *Service) Stop() {}
