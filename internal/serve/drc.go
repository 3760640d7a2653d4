// The duplicate-request cache (DRC): NFS's answer to at-least-once
// transports meeting non-idempotent operations. A client that never saw
// a reply retransmits with the SAME xid — possibly on a new connection
// after a reconnect — and the server must return the ORIGINAL verdict,
// not run CREATE/REMOVE/RENAME a second time.
//
// Entries are keyed (clientID, xid) — the client id comes from the
// connection's HELLO, so the cache survives the connection it was
// filled on. Because the key outlives connections while clients choose
// xids, every entry also records a fingerprint of the request bytes
// (proc + body): only an arrival with the SAME fingerprint is a
// retransmission. A key hit with a different fingerprint is an xid
// collision — a reconnected client reusing the xid space, or two
// connections sharing a client id — and replaying the old verdict
// would answer the wrong request, so the stale entry is superseded and
// the new request executes.
//
// An entry is born in-flight (first arrival claims it and executes); a
// duplicate arriving before completion parks on the done channel
// instead of re-executing, and a duplicate arriving after completion
// replays the recorded reply frame verbatim (same xid, same status,
// same body). Eviction is FIFO over completed entries, bounding memory
// the way real NFS servers bound their DRC — and additionally by TTL:
// a retransmission only arrives within a client's retry horizon, so a
// verdict older than the TTL is dead weight a long-lived quiet client
// would otherwise pin forever under the FIFO cap alone.
package serve

import (
	"hash/crc32"
	"sync"
	"time"
)

type drcKey struct {
	client uint64
	xid    uint32
}

type drcEntry struct {
	fp    uint64        // request fingerprint: proc + body bytes
	done  chan struct{} // closed once reply is recorded
	reply []byte        // complete reply frame, replayed verbatim

	// completedAt is set (under drc.mu) when the verdict is recorded;
	// zero means still in flight. In-flight entries never expire.
	completedAt time.Time
}

// castagnoli is the CRC32C table; crc32 uses the CPU's CRC instruction
// for it where there is one, as core.PageCRC does for page checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reqFingerprint identifies a request (proc + body) so the DRC can tell
// a true retransmission (identical bytes) from an xid collision (a
// different request reusing the key after a reconnect). The low 32
// bits are the CRC32C of the body seeded with the proc, the high 32 the
// body length. Seeds differ per proc, so the same body under two procs
// never collides, and CRC32C catches every difference of up to 32
// consecutive bits between two bodies of equal length. It is a fixed
// function of the bytes, stable across processes, so a verdict keyed by
// it could outlive the server that recorded it.
func reqFingerprint(p Proc, body []byte) uint64 {
	return uint64(len(body))<<32 | uint64(crc32.Update(uint32(p), castagnoli, body))
}

type drc struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration    // completed entries older than this expire
	now     func() time.Time // time.Now; swapped by tests
	entries map[drcKey]*drcEntry
	fifo    []drcKey // completed entries in completion order
}

func newDRC(capacity int, ttl time.Duration) *drc {
	return &drc{
		cap:     capacity,
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[drcKey]*drcEntry, capacity),
	}
}

// expired reports whether a COMPLETED entry's verdict is past the TTL.
// Caller holds d.mu.
func (d *drc) expired(e *drcEntry, now time.Time) bool {
	return d.ttl > 0 && !e.completedAt.IsZero() && now.Sub(e.completedAt) > d.ttl
}

// claim looks the key up, inserting a fresh in-flight entry when it is
// new. dup=false means the caller owns execution and must call record;
// dup=true means the caller waits on entry.done and replays entry.reply.
// A key hit whose fingerprint differs is NOT a duplicate: the old entry
// is superseded and the caller executes the new request.
func (d *drc) claim(key drcKey, fp uint64) (entry *drcEntry, dup bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		if e.fp == fp && !d.expired(e, d.now()) {
			return e, true
		}
		// Either different request bytes under the same key (an xid
		// collision) or a verdict past its TTL (no live retransmission
		// can still want it): drop the stale entry's FIFO slot (if
		// completed) so eviction never deletes the replacement out from
		// under a future retransmission, then re-execute.
		for i, k := range d.fifo {
			if k == key {
				d.fifo = append(d.fifo[:i], d.fifo[i+1:]...)
				break
			}
		}
	}
	e := &drcEntry{fp: fp, done: make(chan struct{})}
	d.entries[key] = e
	return e, false
}

// record stores the reply frame for a claimed entry and releases any
// parked duplicates. It takes its own copy of frame.
func (d *drc) record(key drcKey, entry *drcEntry, frame []byte) {
	entry.reply = append([]byte(nil), frame...)
	d.mu.Lock()
	now := d.now()
	entry.completedAt = now
	if d.entries[key] == entry { // not superseded while executing
		d.fifo = append(d.fifo, key)
		for len(d.fifo) > d.cap {
			old := d.fifo[0]
			d.fifo = d.fifo[1:]
			delete(d.entries, old)
		}
		// Opportunistic TTL purge from the FIFO head: completion order
		// is completion time order, so expired verdicts cluster there.
		for len(d.fifo) > 0 {
			old := d.fifo[0]
			e, ok := d.entries[old]
			if !ok {
				d.fifo = d.fifo[1:]
				continue
			}
			if !d.expired(e, now) {
				break
			}
			d.fifo = d.fifo[1:]
			delete(d.entries, old)
		}
	}
	d.mu.Unlock()
	close(entry.done)
}

// nonIdempotent reports whether a proc must go through the DRC.
// Reads, lookups, getattrs and commits are naturally idempotent;
// namespace mutations and appends are not (a doubled APPEND lands the
// payload twice, a doubled CREATE turns success into ErrExist).
func nonIdempotent(p Proc) bool {
	switch p {
	case ProcCreate, ProcMkdir, ProcRemove, ProcRmdir, ProcRename, ProcAppend, ProcSetattr:
		return true
	}
	return false
}
