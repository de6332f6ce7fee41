package tcpeng

// Ephemeral (autobind) port range. The range is wide, and — unlike the old
// global used-port set — an ephemeral port is reusable towards different
// remote endpoints (classic per-destination port reuse), so one host can
// hold far more than 2^16 outbound connections.
const (
	ephemLow  = 32768
	ephemHigh = 65535
)

// portTable tracks local port ownership two ways: a bitmap of exclusively
// reserved ports (bind/listen — nobody else may use them at all) and a
// refcount of autobound ports (shared across remotes; bind() on one fails
// while any connection still uses it).
type portTable struct {
	reserved [65536 / 64]uint64
	ephem    map[uint16]uint32
	cursor   uint16
}

func (t *portTable) isReserved(port uint16) bool {
	return t.reserved[port>>6]&(1<<(port&63)) != 0
}

// reserve takes a port exclusively; false when it is already reserved or
// in ephemeral use.
func (t *portTable) reserve(port uint16) bool {
	if t.isReserved(port) || t.ephem[port] > 0 {
		return false
	}
	t.reserved[port>>6] |= 1 << (port & 63)
	return true
}

func (t *portTable) unreserve(port uint16) {
	t.reserved[port>>6] &^= 1 << (port & 63)
}

func (t *portTable) ephemAcquire(port uint16) {
	if t.ephem == nil {
		t.ephem = make(map[uint16]uint32)
	}
	t.ephem[port]++
}

func (t *portTable) ephemRelease(port uint16) {
	if n := t.ephem[port]; n > 1 {
		t.ephem[port] = n - 1
	} else {
		delete(t.ephem, port)
	}
}
