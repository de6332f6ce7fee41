package staterec

import "time"

// EntriesPerMilli is the pacing rule's one constant: a table may be
// re-encoded and stored once per millisecond for every EntriesPerMilli
// entries it holds. A flush costs tens of nanoseconds per entry (encode,
// plus the storage server's copy), so persistence stays near one percent of
// its server's time at any table size — and because the division truncates,
// a table smaller than this has no gap at all: every transition is in
// storage before the reply that acknowledges it leaves the server.
const EntriesPerMilli = 256

// Gap is the least time between two flushes of a table with that many
// entries.
func Gap(entries int) time.Duration {
	return time.Duration(entries/EntriesPerMilli) * time.Millisecond
}

// Pacer decides when a changed table is flushed. It reads no clock: callers
// pass the loop iteration's timestamp and the table size they already know.
type Pacer struct {
	dirty bool
	last  time.Time
}

// Mark notes that the table changed since the last flush.
func (p *Pacer) Mark() { p.dirty = true }

// Take reports whether a changed table is due for a flush at now, and if
// so books that flush: the caller performs it.
func (p *Pacer) Take(now time.Time, entries int) bool {
	if !p.dirty || now.Sub(p.last) < Gap(entries) {
		return false
	}
	p.dirty, p.last = false, now
	return true
}

// Deadline is when a pending flush falls due; zero when nothing is pending.
func (p *Pacer) Deadline(entries int) time.Time {
	if !p.dirty {
		return time.Time{}
	}
	return p.last.Add(Gap(entries))
}
