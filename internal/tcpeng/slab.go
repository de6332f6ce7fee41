package tcpeng

import "newtos/internal/netpkt"

// pcb storage: a slab of by-value pcbs addressed by shard-local slot ids,
// with compact open-addressing indexes for the two hot lookups (socket id,
// four-tuple). Compared to map[uint32]*pcb this removes one pointer chase
// per lookup, keeps pcbs of a block adjacent in memory, and bounds the
// per-idle-connection footprint to one slab cell plus two index cells.

const (
	slabBlockBits = 8
	slabBlockSize = 1 << slabBlockBits
	slabBlockMask = slabBlockSize - 1
)

// pcbSlab allocates pcbs in fixed blocks; a pcb's address is stable for
// its whole life (blocks are never moved or freed), so *pcb pointers taken
// from the slab — including wheel entries — stay valid until release.
type pcbSlab struct {
	blocks [][]pcb
	free   []uint32
	next   uint32 // high-water slot
	inUse  int
}

// alloc returns a zeroed pcb and its slot. Timer generations survive slot
// reuse: stale wheel entries of the previous occupant must keep failing
// their sequence check against the new occupant.
func (s *pcbSlab) alloc() (*pcb, uint32) {
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = s.next
		s.next++
		if int(slot>>slabBlockBits) == len(s.blocks) {
			s.blocks = append(s.blocks, make([]pcb, slabBlockSize))
		}
	}
	p := s.at(slot)
	seqs := p.timerSeq
	*p = pcb{slot: slot, bufIdx: -1, timerSeq: seqs}
	s.inUse++
	return p, slot
}

// release returns a slot to the freelist. Bumping every timer generation
// orphans any wheel entry still pointing at this pcb.
func (s *pcbSlab) release(p *pcb) {
	for k := range p.timerSeq {
		p.timerSeq[k]++
	}
	p.wheelAt = [numTimers]int64{}
	p.stream, p.rcvQ, p.oooQ, p.sacked, p.buf = nil, nil, nil, nil, nil
	p.pendingAccept, p.acceptQ = nil, nil
	s.free = append(s.free, p.slot)
	s.inUse--
}

func (s *pcbSlab) at(slot uint32) *pcb {
	return &s.blocks[slot>>slabBlockBits][slot&slabBlockMask]
}

// idx64 is a compact open-addressing hash index: uint64 key → uint32 slot.
// Linear probing, tombstone deletion, rehash at 3/4 occupancy. It is the
// four-tuple and socket-id lookup structure — flat arrays, no per-entry
// allocation, no pointer chasing.
type idx64 struct {
	keys  []uint64
	vals  []uint32
	state []uint8
	n     int // live entries
	used  int // live + tombstones
}

const (
	idxEmpty uint8 = iota
	idxFull
	idxTomb
)

// hash64 is the splitmix64 finalizer — strong enough to spread packed
// tuples and sequential socket ids across the table.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (ix *idx64) len() int { return ix.n }

func (ix *idx64) get(key uint64) (uint32, bool) {
	if ix.n == 0 {
		return 0, false
	}
	mask := uint64(len(ix.keys) - 1)
	for i := hash64(key) & mask; ; i = (i + 1) & mask {
		switch ix.state[i] {
		case idxEmpty:
			return 0, false
		case idxFull:
			if ix.keys[i] == key {
				return ix.vals[i], true
			}
		}
	}
}

func (ix *idx64) put(key uint64, val uint32) {
	if len(ix.keys) == 0 || (ix.used+1)*4 >= len(ix.keys)*3 {
		ix.grow()
	}
	mask := uint64(len(ix.keys) - 1)
	firstTomb := -1
	for i := hash64(key) & mask; ; i = (i + 1) & mask {
		switch ix.state[i] {
		case idxFull:
			if ix.keys[i] == key {
				ix.vals[i] = val
				return
			}
		case idxTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case idxEmpty:
			at := int(i)
			if firstTomb >= 0 {
				at = firstTomb
			} else {
				ix.used++
			}
			ix.keys[at], ix.vals[at], ix.state[at] = key, val, idxFull
			ix.n++
			return
		}
	}
}

func (ix *idx64) del(key uint64) bool {
	if ix.n == 0 {
		return false
	}
	mask := uint64(len(ix.keys) - 1)
	for i := hash64(key) & mask; ; i = (i + 1) & mask {
		switch ix.state[i] {
		case idxEmpty:
			return false
		case idxFull:
			if ix.keys[i] == key {
				ix.state[i] = idxTomb
				ix.n--
				return true
			}
		}
	}
}

func (ix *idx64) grow() {
	newCap := 16
	if len(ix.keys) > 0 {
		newCap = len(ix.keys)
		// Only double when genuinely full of live entries; a tombstone-heavy
		// table rehashes in place at the same size.
		if ix.n*2 >= len(ix.keys) {
			newCap *= 2
		}
	}
	oldKeys, oldVals, oldState := ix.keys, ix.vals, ix.state
	ix.keys = make([]uint64, newCap)
	ix.vals = make([]uint32, newCap)
	ix.state = make([]uint8, newCap)
	ix.n, ix.used = 0, 0
	for i, st := range oldState {
		if st == idxFull {
			ix.put(oldKeys[i], oldVals[i])
		}
	}
}

// each visits every live entry. Membership must not change during the walk.
func (ix *idx64) each(fn func(key uint64, val uint32)) {
	for i, st := range ix.state {
		if st == idxFull {
			fn(ix.keys[i], ix.vals[i])
		}
	}
}

// tupleKey packs a connection four-tuple into the byTuple index key. The
// local IP is not part of the key (engine instances are per-host and a
// port is used towards one remote endpoint at most once).
func tupleKey(localPort uint16, remoteIP netpkt.IPAddr, remotePort uint16) uint64 {
	return uint64(localPort)<<48 | uint64(remoteIP.U32())<<16 | uint64(remotePort)
}

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
