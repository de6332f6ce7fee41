package tcpsrv

import "testing"

// TestNamesOnARunningNode pins the strings other components and persisted
// state depend on: component and edge names are how IP, the SYSCALL server
// and the reincarnation server find a shard, and the storage keys are what
// a restarted shard (and PF's conntrack rebuild) reads back.
func TestNamesOnARunningNode(t *testing.T) {
	cases := []struct {
		k, n                 int
		name, ipEdge, scEdge string
		storageKey, flowsKey string
	}{
		{0, 0, "tcp", "ip-tcp", "sc-tcp", "tcp/0/sockets", "tcp/0/flows"},
		{0, 1, "tcp", "ip-tcp", "sc-tcp", "tcp/0/sockets", "tcp/0/flows"},
		{0, 2, "tcp0", "ip-tcp0", "sc-tcp0", "tcp/0/sockets", "tcp/0/flows"},
		{3, 4, "tcp3", "ip-tcp3", "sc-tcp3", "tcp/3/sockets", "tcp/3/flows"},
	}
	for _, tc := range cases {
		ipEdge, ipPeer := IPEdge(tc.k, tc.n)
		scEdge, scPeer := SCEdge(tc.k, tc.n)
		got := []string{ShardName(tc.k, tc.n), ipEdge, ipPeer, scEdge, scPeer, StorageKeyFor(tc.k), FlowsKeyFor(tc.k), BufKeyPfx}
		want := []string{tc.name, tc.ipEdge, tc.name, tc.scEdge, tc.name, tc.storageKey, tc.flowsKey, "sockbuf/tcp/"}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("shard %d of %d: got %q, want %q", tc.k, tc.n, got[i], want[i])
			}
		}
	}
}
