// The worker open-file cache and the invalidation log that keeps it
// honest.
//
// Each worker keeps a small LRU of open files keyed by (handle, write),
// so a hot file's READ/WRITE/APPEND skips the handle resolution and
// open. The cache is a pure performance cache for every mutation made
// through this server: each one that can make a cached open wrong —
// REMOVE/RMDIR of a file, RENAME of a file or over one, CREATE over an
// existing name — appends the affected inode numbers to the server's
// invalidation log before it replies. Entries name inodes, not
// handles: a fallback-regime handle carries the fingerprint of the
// path it was minted under, which a rename keeps, so only the inode
// identifies every handle to the file. A worker applies the log
// entries it has not yet seen at the top of every lookup and retires
// every cached open of the inodes they name; opens of unrelated files
// stay cached. A worker that has fallen further behind than the log
// holds, or that meets an entry naming no particular inode, flushes its
// whole cache. The server's namespace locks (server.go) keep the inode
// a mutation logs the one it changed; a mutation made by another
// client of the same file system, outside this server, is not seen.
package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"trio/internal/fsapi"
)

// invalLogSize bounds the invalidation log (8 bytes an entry). A worker
// more than this many entries behind flushes instead of replaying. In
// a saturated closed loop a runnable worker can wait tens of
// milliseconds for a CPU while the others go on mutating — hundreds of
// entries at wire-small's rate — so the log is sized well past that.
const invalLogSize = 4096

// flushAllKey is the log entry that retires every cached open. It is
// logged when a mutation succeeded but the inode it affected could not
// be identified (the name changed between the stat and the op, which
// only a client outside this server can do). Logged inodes are packed
// as generation-0 handles, so no inode entry can equal it.
const flushAllKey = ^uint64(0)

// invalLog is the server-wide ring of inode numbers whose cached opens
// must be retired. seq counts entries ever appended; entry i lives in
// ring[i%invalLogSize] until entry i+invalLogSize overwrites it.
type invalLog struct {
	seq  atomic.Uint64
	mu   sync.Mutex // serializes appends, and readers against them
	ring [invalLogSize]uint64
}

// add logs one inode. It runs before the mutation's reply is queued,
// so any request a client issues after seeing the reply finds the
// entry.
func (l *invalLog) add(ino uint64) { l.put(fsapi.Handle{Ino: ino}.Pack()) }

// flushAll logs an entry that retires every cached open.
func (l *invalLog) flushAll() { l.put(flushAllKey) }

func (l *invalLog) put(entry uint64) {
	l.mu.Lock()
	s := l.seq.Load()
	l.ring[s%invalLogSize] = entry
	l.seq.Store(s + 1)
	l.mu.Unlock()
}

// fcKey names one cached open: a packed handle and the access mode.
type fcKey struct {
	h     uint64
	write bool
}

// fcEntry is one cached open file, owned by the LRU list.
type fcEntry struct {
	key fcKey
	f   fsapi.File
}

// fileCache is one worker's bounded LRU of resolved open files. Only its
// worker touches it.
type fileCache struct {
	cap  int
	hint int // telemetry shard: the worker id
	log  *invalLog
	tab  *handleTab
	seen uint64 // log entries already applied
	m    map[fcKey]*list.Element
	lru  *list.List // front = most recently used; holds *fcEntry
}

func newFileCache(capacity, hint int, log *invalLog, tab *handleTab) *fileCache {
	return &fileCache{
		cap:  capacity,
		hint: hint,
		log:  log,
		tab:  tab,
		seen: log.seq.Load(),
		m:    make(map[fcKey]*list.Element, capacity),
		lru:  list.New(),
	}
}

// sync applies the invalidation-log entries this cache has not seen.
func (fc *fileCache) sync() {
	log := fc.log
	s := log.seq.Load()
	if s == fc.seen {
		return
	}
	log.mu.Lock()
	s = log.seq.Load()
	flush := s-fc.seen > invalLogSize
	for i := fc.seen; i < s && !flush; i++ {
		entry := log.ring[i%invalLogSize]
		if entry == flushAllKey {
			flush = true
			break
		}
		fc.retireIno(entry)
	}
	log.mu.Unlock()
	fc.seen = s
	if flush {
		fc.closeAll()
		mFCFlushes.IncOn(fc.hint)
	}
}

// get returns the cached open of h, opening (and caching) it on a miss.
func (fc *fileCache) get(client fsapi.Client, h fsapi.Handle, write bool) (fsapi.File, error) {
	fc.sync()
	key := fcKey{h.Pack(), write}
	if el, ok := fc.m[key]; ok {
		fc.lru.MoveToFront(el)
		mFCHits.IncOn(fc.hint)
		return el.Value.(*fcEntry).f, nil
	}
	mFCMisses.IncOn(fc.hint)
	f, err := fc.tab.openFile(client, h, write)
	if err != nil {
		return nil, err
	}
	if fc.lru.Len() >= fc.cap {
		// Reuse the least recently used slot: no allocation once full.
		el := fc.lru.Back()
		e := el.Value.(*fcEntry)
		e.f.Close()
		delete(fc.m, e.key)
		e.key, e.f = key, f
		fc.lru.MoveToFront(el)
		fc.m[key] = el
		return f, nil
	}
	fc.m[key] = fc.lru.PushFront(&fcEntry{key: key, f: f})
	return f, nil
}

// retireIno closes and forgets every cached open of one inode, under
// any generation and either access mode. The cache holds a handful of
// entries, so a scan is cheaper than an index kept beside the map.
func (fc *fileCache) retireIno(ino uint64) {
	for el := fc.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*fcEntry); fsapi.UnpackHandle(e.key.h).Ino == ino {
			e.f.Close()
			delete(fc.m, e.key)
			fc.lru.Remove(el)
			mFCInvalidations.IncOn(fc.hint)
		}
		el = next
	}
}

// drop evicts one entry after an I/O error so the next access re-opens.
func (fc *fileCache) drop(h fsapi.Handle, write bool) {
	key := fcKey{h.Pack(), write}
	if el, ok := fc.m[key]; ok {
		el.Value.(*fcEntry).f.Close()
		delete(fc.m, key)
		fc.lru.Remove(el)
	}
}

func (fc *fileCache) closeAll() {
	for k, el := range fc.m {
		el.Value.(*fcEntry).f.Close()
		delete(fc.m, k)
	}
	fc.lru.Init()
}
