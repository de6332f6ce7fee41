package tcpsrv

import "testing"

// TestNamesOnARunningNode pins the strings other components and persisted
// state depend on: the storage keys are what a restarted TCP server (and
// PF's conntrack rebuild) reads back, and the buffer prefix is how
// applications find a socket's shared TX buffer.
func TestNamesOnARunningNode(t *testing.T) {
	got := []string{StorageKey, FlowsKey, BufKeyPfx}
	want := []string{"tcp/sockets", "tcp/flows", "sockbuf/tcp/"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %q, want %q", got[i], want[i])
		}
	}
}
