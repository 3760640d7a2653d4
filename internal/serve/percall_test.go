// Tests and benchmarks of the per-call cost work: the CRC32C request
// fingerprint, the precise open-file-cache invalidation, the worker
// cache's LRU, and the Session round trip's allocations.
package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/telemetry"
)

// TestReqFingerprintDistinguishes: equal-length bodies that differ, and
// one body under two procs, get different fingerprints; the function is
// a fixed function of the bytes (pinned by a known value), so a verdict
// keyed by it means the same thing in another process.
func TestReqFingerprintDistinguishes(t *testing.T) {
	if got, want := reqFingerprint(ProcAppend, []byte("x")), uint64(0x1_8f9db87b); got != want {
		t.Fatalf("fingerprint(append, \"x\") = %#x, want %#x", got, want)
	}

	rng := rand.New(rand.NewSource(1))
	body := make([]byte, 4096)
	rng.Read(body)
	base := reqFingerprint(ProcAppend, body)
	if reqFingerprint(ProcAppend, bytes.Clone(body)) != base {
		t.Fatal("identical bytes fingerprint differently")
	}
	for i := 0; i < 2000; i++ {
		other := bytes.Clone(body)
		pos := rng.Intn(len(other))
		other[pos] ^= byte(1 + rng.Intn(255))
		if reqFingerprint(ProcAppend, other) == base {
			t.Fatalf("byte %d changed, fingerprint did not", pos)
		}
	}
	seen := make(map[uint64]Proc)
	for p := Proc(0); p < procCount; p++ {
		fp := reqFingerprint(p, body)
		if q, dup := seen[fp]; dup {
			t.Fatalf("procs %v and %v fingerprint one body identically", q, p)
		}
		seen[fp] = p
	}
	if reqFingerprint(ProcAppend, body[:100]) == reqFingerprint(ProcAppend, append(body[:100:100], 0)) {
		t.Fatal("a trailing zero byte left the fingerprint unchanged")
	}
}

// TestDRCRetransmissionByFingerprint drives a 4 KiB APPEND through the
// DRC by hand: a byte-identical retransmission replays the verdict and
// appends nothing, while a same-length body that differs under the same
// xid is a collision and executes.
func TestDRCRetransmissionByFingerprint(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	srv := lb.Server()
	h, _, err := lb.conn.Create(srv.Root(), "fp", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, srv, 91)

	payload := bytes.Repeat([]byte{0xA5}, 4096)
	body := AppendBytes(AppendHandle(nil, h), payload)
	st1, r1 := rc.rpc(5, ProcAppend, body)
	st2, r2 := rc.rpc(5, ProcAppend, body)
	if st1 != StatusOK || st2 != StatusOK || !bytes.Equal(r1, r2) {
		t.Fatalf("retransmission: %d %x then %d %x, want the same verdict", st1, r1, st2, r2)
	}
	if a, err := lb.conn.Getattr(h); err != nil || a.Size != 4096 {
		t.Fatalf("after a retransmitted append: size %d (%v), want 4096", a.Size, err)
	}

	payload[100] ^= 1
	body = AppendBytes(AppendHandle(nil, h), payload)
	if st, _ := rc.rpc(5, ProcAppend, body); st != StatusOK {
		t.Fatalf("colliding append: status %d", st)
	}
	if a, err := lb.conn.Getattr(h); err != nil || a.Size != 8192 {
		t.Fatalf("after a colliding append: size %d (%v), want 8192", a.Size, err)
	}
}

// fcCounters is a snapshot of the file-cache counters.
type fcCounters struct{ hits, misses, invalidations, flushes int64 }

func loadFC() fcCounters {
	return fcCounters{mFCHits.Load(), mFCMisses.Load(), mFCInvalidations.Load(), mFCFlushes.Load()}
}

func (a fcCounters) sub(b fcCounters) fcCounters {
	return fcCounters{a.hits - b.hits, a.misses - b.misses, a.invalidations - b.invalidations, a.flushes - b.flushes}
}

// enableTelemetry turns the default registry on for one test.
func enableTelemetry(t *testing.T) {
	if telemetry.Default().Enabled() {
		return
	}
	telemetry.Default().Enable()
	t.Cleanup(telemetry.Default().Disable)
}

// twoConns mounts name behind a server with one worker per connection,
// so each connection's file cache is one known cache, and dials two
// connections to it.
func twoConns(t *testing.T, name string) (a, b *Conn) {
	t.Helper()
	lb := mountLoopback(t, name, Options{Workers: 1})
	t.Cleanup(func() { lb.Close() })
	var err error
	if a, err = lb.Server().Loopback(201); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if b, err = lb.Server().Loopback(202); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

// cacheOpens makes conn's worker cache a read and a write open of h.
func cacheOpens(t *testing.T, conn *Conn, h fsapi.Handle) {
	t.Helper()
	if _, err := conn.Write(h, 0, bytes.Repeat([]byte{7}, 8192)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(h, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
}

// TestFileCacheMutationStalesOtherWorker: a REMOVE, or a RENAME over
// the file, on one connection retires the cached opens another
// connection's worker holds, which then answers ErrStale — in both
// handle regimes, and also when the file was renamed after its handle
// was minted (a fallback handle keeps the old name's generation, so
// only the inode ties it to the file).
func TestFileCacheMutationStalesOtherWorker(t *testing.T) {
	enableTelemetry(t)
	for _, name := range []string{"arckfs", "nova"} {
		for _, op := range []string{"remove", "rename-over", "moved/remove", "moved/rename-over"} {
			t.Run(name+"/"+op, func(t *testing.T) {
				a, b := twoConns(t, name)
				h, _, err := a.Create(a.Root(), "victim", 0o644)
				if err != nil {
					t.Fatal(err)
				}
				victim := "victim"
				if strings.HasPrefix(op, "moved/") {
					if err := a.Rename(a.Root(), "victim", a.Root(), "moved"); err != nil {
						t.Fatal(err)
					}
					victim = "moved"
				}
				cacheOpens(t, a, h)
				before := loadFC()
				if strings.HasSuffix(op, "remove") {
					err = b.Remove(b.Root(), victim)
				} else {
					if _, _, err = b.Create(b.Root(), "other", 0o644); err == nil {
						err = b.Rename(b.Root(), "other", b.Root(), victim)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := a.Read(h, 0, make([]byte, 16)); !errors.Is(err, fsapi.ErrStale) {
					t.Fatalf("read through the cached open after %s = %v, want ErrStale", op, err)
				}
				if _, err := a.Write(h, 0, []byte("late")); !errors.Is(err, fsapi.ErrStale) {
					t.Fatalf("write through the cached open after %s = %v, want ErrStale", op, err)
				}
				d := loadFC().sub(before)
				if d.invalidations != 2 || d.flushes != 0 {
					t.Fatalf("%s: %d invalidations, %d flushes; want the 2 cached opens retired and no flush", op, d.invalidations, d.flushes)
				}
			})
		}
	}
}

// TestFileCacheCreateTruncates: CREATE over an existing name truncates
// it, and a worker that had the file open shows the new size.
func TestFileCacheCreateTruncates(t *testing.T) {
	enableTelemetry(t)
	for _, name := range []string{"arckfs", "nova"} {
		t.Run(name, func(t *testing.T) {
			a, b := twoConns(t, name)
			h, _, err := a.Create(a.Root(), "f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			cacheOpens(t, a, h)
			before := loadFC()
			nh, attr, err := b.Create(b.Root(), "f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if nh != h || attr.Size != 0 {
				t.Fatalf("create over: handle %v size %d, want %v size 0", nh, attr.Size, h)
			}
			if n, err := a.Read(h, 0, make([]byte, 4096)); err != nil || n != 0 {
				t.Fatalf("read after the truncating create: %d bytes (%v), want 0", n, err)
			}
			d := loadFC().sub(before)
			if d.invalidations != 2 || d.flushes != 0 {
				t.Fatalf("%d invalidations, %d flushes; want the 2 cached opens retired and no flush", d.invalidations, d.flushes)
			}
		})
	}
}

// TestFileCacheUnrelatedMutationKeepsEntries: creating and removing
// another name evicts nothing; the next READ is a cache hit.
func TestFileCacheUnrelatedMutationKeepsEntries(t *testing.T) {
	enableTelemetry(t)
	a, b := twoConns(t, "arckfs")
	h, _, err := a.Create(a.Root(), "hot", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cacheOpens(t, a, h)
	if _, _, err := b.Create(b.Root(), "tmp", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(b.Root(), "tmp"); err != nil {
		t.Fatal(err)
	}
	before := loadFC()
	if n, err := a.Read(h, 0, make([]byte, 4096)); err != nil || n != 4096 {
		t.Fatalf("read: %d (%v)", n, err)
	}
	if d := loadFC().sub(before); d != (fcCounters{hits: 1}) {
		t.Fatalf("counters moved by %+v, want exactly one hit", d)
	}
}

// gatedFS holds the first Unlink or Rename (op) whose path is path
// until release is closed, so a test can run other mutations inside a
// REMOVE's or RENAME's window between its stat and the namespace change.
type gatedFS struct {
	fsapi.FS
	op, path string
	entered  chan struct{} // closed when the gated call arrives
	release  chan struct{}
	held     *atomic.Bool
}

func (g gatedFS) NewClient(cpu int) fsapi.Client {
	return gatedClient{g.FS.NewClient(cpu).(fsapi.HandleClient), g}
}

func (g gatedFS) hold(op, path string) {
	if op == g.op && path == g.path && g.held.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
}

type gatedClient struct {
	fsapi.HandleClient
	g gatedFS
}

func (c gatedClient) Unlink(path string) error {
	c.g.hold("unlink", path)
	return c.HandleClient.Unlink(path)
}

func (c gatedClient) Rename(from, to string) error {
	c.g.hold("rename", to)
	return c.HandleClient.Rename(from, to)
}

// TestFileCacheRacingMutations: while a REMOVE of x, or a RENAME onto
// x, sits between its stat and its namespace change, another
// connection removes and re-creates x and a third caches opens of the
// new file. Whatever order the server lets these run in, a handle
// whose file the mutations removed must answer ErrStale through the
// cached open, and one whose file is live must read.
func TestFileCacheRacingMutations(t *testing.T) {
	for _, op := range []string{"unlink", "rename"} {
		t.Run(op, func(t *testing.T) {
			inst, err := fsfactory.New("arckfs", fsfactory.Config{Nodes: 1, PagesPerNode: 2048, CPUs: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			g := gatedFS{FS: inst, op: op, path: "/x", entered: make(chan struct{}), release: make(chan struct{}), held: new(atomic.Bool)}
			srv, err := NewServer(g, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var conns [3]*Conn
			for i := range conns {
				if conns[i], err = srv.Loopback(uint64(301 + i)); err != nil {
					t.Fatal(err)
				}
				defer conns[i].Close()
			}
			a, b, c := conns[0], conns[1], conns[2]
			root := a.Root()
			if _, _, err := a.Create(root, "x", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := a.Create(root, "other", 0o644); err != nil {
				t.Fatal(err)
			}

			mutated := make(chan error, 1)
			go func() {
				if op == "unlink" {
					mutated <- b.Remove(root, "x")
				} else {
					mutated <- b.Rename(root, "other", root, "x")
				}
			}()
			<-g.entered
			type raced struct {
				h   fsapi.Handle
				err error
			}
			racedCh := make(chan raced, 1)
			go func() {
				if err := c.Remove(root, "x"); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
					racedCh <- raced{err: err}
					return
				}
				h, _, err := c.Create(root, "x", 0o644)
				if err == nil {
					_, err = a.Write(h, 0, []byte("cached"))
				}
				if err == nil {
					_, err = a.Read(h, 0, make([]byte, 6))
				}
				racedCh <- raced{h, err}
			}()
			// Give the racing mutations time to run inside the window
			// if the server lets them; then let the held call finish.
			time.Sleep(50 * time.Millisecond)
			close(g.release)
			if err := <-mutated; err != nil {
				t.Fatal(err)
			}
			r := <-racedCh
			if r.err != nil {
				t.Fatal(r.err)
			}

			cur, _, err := a.Lookup(root, "x")
			live := err == nil && cur == r.h
			_, rerr := a.Read(r.h, 0, make([]byte, 6))
			switch {
			case live && rerr != nil:
				t.Fatalf("x still names the re-created file, but reading it = %v", rerr)
			case !live && !errors.Is(rerr, fsapi.ErrStale):
				t.Fatalf("the re-created file was replaced or removed, but reading it through the cached open = %v, want ErrStale", rerr)
			}
		})
	}
}

// TestFileCacheLRU: a hit refreshes an entry's recency, and an entry
// dropped and opened again is not evicted early by a stale slot.
func TestFileCacheLRU(t *testing.T) {
	inst, err := fsfactory.New("arckfs", fsfactory.Config{Nodes: 1, PagesPerNode: 2048, CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	client := inst.NewClient(0)
	handles := make([]fsapi.Handle, 6)
	for i := range handles {
		path := "/f" + string(rune('a'+i))
		f, err := client.Create(path, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		info, err := client.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = fsapi.Handle{Ino: info.Ino}
	}
	tab := newHandleTab(true, 64)
	var log invalLog
	fc := newFileCache(3, 0, &log, tab)
	defer fc.closeAll()
	get := func(i int) {
		t.Helper()
		if _, err := fc.get(client, handles[i], false); err != nil {
			t.Fatal(err)
		}
	}
	cached := func(i int) bool {
		_, ok := fc.m[fcKey{handles[i].Pack(), false}]
		return ok
	}

	get(0)
	get(1)
	get(2)
	get(0) // hit: 1 is now the least recently used
	get(3)
	if !cached(0) || cached(1) {
		t.Fatal("a hit did not refresh recency: the LRU evicted the entry just used")
	}

	fc.drop(handles[2], false)
	get(2) // re-opened after a drop: now the most recent
	get(4) // evicts 0, the least recent
	if !cached(2) || !cached(3) || !cached(4) || cached(0) {
		t.Fatalf("after drop and re-open: cached 0..4 = %v %v %v %v %v, want 2, 3 and 4",
			cached(0), cached(1), cached(2), cached(3), cached(4))
	}
	// A dropped entry frees its slot: the next open fills it without
	// evicting anything still cached.
	fc.drop(handles[4], false)
	get(1)
	if !cached(1) || !cached(2) || !cached(3) {
		t.Fatalf("after a drop freed a slot: cached 1, 2, 3 = %v %v %v, want all three",
			cached(1), cached(2), cached(3))
	}
	if fc.lru.Len() != len(fc.m) {
		t.Fatalf("LRU list holds %d entries, map %d", fc.lru.Len(), len(fc.m))
	}

	// A logged inode retires its entry and frees the slot.
	log.add(handles[2].Ino)
	get(5)
	if cached(2) || !cached(1) || !cached(3) || !cached(5) {
		t.Fatalf("after inode 2 was logged: cached 1, 2, 3, 5 = %v %v %v %v, want 1, 3 and 5",
			cached(1), cached(2), cached(3), cached(5))
	}

	// A worker further behind than the log holds flushes everything.
	for i := 0; i <= invalLogSize; i++ {
		log.add(uint64(1_000_000 + i))
	}
	get(5)
	if len(fc.m) != 1 || !cached(5) {
		t.Fatalf("after the log overflowed: %d entries cached, want only the new one", len(fc.m))
	}
}

// TestReadHoleAfterPooledBuffers: READ replies are built in recycled
// buffers without clearing them, so a hole read after other data went
// through the pool must still come back as zeros.
func TestReadHoleAfterPooledBuffers(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	conn := lb.conn
	full, _, err := conn.Create(conn.Root(), "full", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sparse, _, err := conn.Create(conn.Root(), "sparse", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(full, 0, bytes.Repeat([]byte{0xEE}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(sparse, 64<<10, []byte("end")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		if _, err := conn.Read(full, 0, buf); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(sparse, 4096, buf)
		if err != nil || n != len(buf) {
			t.Fatalf("hole read: %d (%v)", n, err)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatal("hole read returned stale bytes")
		}
	}
}

// BenchmarkSessionRoundTrip is one 4 KiB READ, WRITE and APPEND plus a
// GETATTR through a Session over NewDuplex against an in-memory ArckFS
// (no cost model), client and server in one process. Every 256th
// iteration also truncates the append file so it stays small. check.sh
// gates its allocs/op.
func BenchmarkSessionRoundTrip(b *testing.B) {
	inst, err := fsfactory.New("arckfs", fsfactory.Config{Nodes: 1, PagesPerNode: 8192, CPUs: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	srv, err := NewServer(inst, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	redial := func() (io.ReadWriteCloser, error) {
		a, c := NewDuplex(loopbackBuf)
		go srv.ServeConn(a)
		return c, nil
	}
	sess, err := NewSession(redial, SessionOptions{ClientID: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()

	const span = 16 // blocks of the read/write file
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	rbuf := make([]byte, 4096)
	rw, _, err := sess.Create(ctx, sess.Root(), "rw", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Write(ctx, rw, 0, bytes.Repeat(payload, span)); err != nil {
		b.Fatal(err)
	}
	log, _, err := sess.Create(ctx, sess.Root(), "log", 0o644)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.SetBytes(3 * int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%span) * int64(len(payload))
		if n, err := sess.Read(ctx, rw, off, rbuf); err != nil || n != len(rbuf) {
			b.Fatalf("read: %d %v", n, err)
		}
		if _, err := sess.Write(ctx, rw, off, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Append(ctx, log, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Getattr(ctx, rw); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			if err := sess.Setattr(ctx, log, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReqFingerprint hashes one 4 KiB APPEND body, the DRC's cost
// per non-idempotent data request. It reports only; nothing gates it.
func BenchmarkReqFingerprint(b *testing.B) {
	body := bytes.Repeat([]byte{0x5A}, 4096+16)
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		reqFingerprint(ProcAppend, body)
	}
}
