package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/fsapi"
)

// extras are the benchmark shims' counters, read at the window's edges.
type extras struct {
	fsNS, fsCalls       int64 // fsapi calls the server made, and their time
	srvWrites, srvBytes int64 // server transport writes and bytes both ways
}

func (e extras) sub(p extras) extras {
	return extras{e.fsNS - p.fsNS, e.fsCalls - p.fsCalls, e.srvWrites - p.srvWrites, e.srvBytes - p.srvBytes}
}

// fsShim wraps the FS handed to serve.NewServer in a traced run and
// times every fsapi call the server makes. Clients of an FS with native
// handles stay fsapi.HandleClients, so the server keeps its native
// handle path and the traced run measures the same program.
type fsShim struct {
	fsapi.FS
	mu    sync.Mutex
	stats []*shimStats
}

// shimStats is one client's tally; padded so server workers on
// different clients do not share a cache line.
type shimStats struct {
	ns, calls atomic.Int64
	_         [48]byte
}

func (st *shimStats) since(t0 time.Time) {
	st.ns.Add(int64(time.Since(t0)))
	st.calls.Add(1)
}

func newFSShim(inner fsapi.FS) *fsShim { return &fsShim{FS: inner} }

func (s *fsShim) NewClient(cpu int) fsapi.Client {
	st := &shimStats{}
	s.mu.Lock()
	s.stats = append(s.stats, st)
	s.mu.Unlock()
	inner := s.FS.NewClient(cpu)
	c := &shimClient{in: inner, st: st}
	if hc, ok := inner.(fsapi.HandleClient); ok {
		return &shimHandleClient{shimClient: c, hc: hc}
	}
	return c
}

func (s *fsShim) totals() (ns, calls int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.stats {
		ns += st.ns.Load()
		calls += st.calls.Load()
	}
	return ns, calls
}

type shimClient struct {
	in fsapi.Client
	st *shimStats
}

func (c *shimClient) wrap(f fsapi.File, err error) (fsapi.File, error) {
	if err != nil {
		return nil, err
	}
	return &shimFile{in: f, st: c.st}, nil
}

func (c *shimClient) Create(path string, mode uint16) (fsapi.File, error) {
	defer c.st.since(time.Now())
	return c.wrap(c.in.Create(path, mode))
}

func (c *shimClient) Open(path string, write bool) (fsapi.File, error) {
	defer c.st.since(time.Now())
	return c.wrap(c.in.Open(path, write))
}

func (c *shimClient) Mkdir(path string, mode uint16) error {
	defer c.st.since(time.Now())
	return c.in.Mkdir(path, mode)
}

func (c *shimClient) Unlink(path string) error {
	defer c.st.since(time.Now())
	return c.in.Unlink(path)
}

func (c *shimClient) Rmdir(path string) error {
	defer c.st.since(time.Now())
	return c.in.Rmdir(path)
}

func (c *shimClient) Rename(oldPath, newPath string) error {
	defer c.st.since(time.Now())
	return c.in.Rename(oldPath, newPath)
}

func (c *shimClient) Stat(path string) (fsapi.FileInfo, error) {
	defer c.st.since(time.Now())
	return c.in.Stat(path)
}

func (c *shimClient) ReadDir(path string) ([]string, error) {
	defer c.st.since(time.Now())
	return c.in.ReadDir(path)
}

type shimHandleClient struct {
	*shimClient
	hc fsapi.HandleClient
}

func (c *shimHandleClient) OpenByHandle(h fsapi.Handle, write bool) (fsapi.File, error) {
	defer c.st.since(time.Now())
	return c.wrap(c.hc.OpenByHandle(h, write))
}

func (c *shimHandleClient) StatByHandle(h fsapi.Handle) (fsapi.FileInfo, error) {
	defer c.st.since(time.Now())
	return c.hc.StatByHandle(h)
}

type shimFile struct {
	in fsapi.File
	st *shimStats
}

func (f *shimFile) ReadAt(b []byte, off int64) (int, error) {
	defer f.st.since(time.Now())
	return f.in.ReadAt(b, off)
}

func (f *shimFile) WriteAt(b []byte, off int64) (int, error) {
	defer f.st.since(time.Now())
	return f.in.WriteAt(b, off)
}

func (f *shimFile) Append(b []byte) (int64, error) {
	defer f.st.since(time.Now())
	return f.in.Append(b)
}

func (f *shimFile) Truncate(size int64) error {
	defer f.st.since(time.Now())
	return f.in.Truncate(size)
}

func (f *shimFile) Size() int64 {
	defer f.st.since(time.Now())
	return f.in.Size()
}

func (f *shimFile) Sync() error {
	defer f.st.since(time.Now())
	return f.in.Sync()
}

func (f *shimFile) Close() error {
	defer f.st.since(time.Now())
	return f.in.Close()
}

// wireCounters tallies the server side of the loopback transports.
type wireCounters struct {
	writes, bytes atomic.Int64
}

// countingRW is the server's end of a traced connection: each Write is
// one reply batch.
type countingRW struct {
	io.ReadWriteCloser
	c *wireCounters
}

func (t *countingRW) Read(p []byte) (int, error) {
	n, err := t.ReadWriteCloser.Read(p)
	t.c.bytes.Add(int64(n))
	return n, err
}

func (t *countingRW) Write(p []byte) (int, error) {
	n, err := t.ReadWriteCloser.Write(p)
	t.c.writes.Add(1)
	t.c.bytes.Add(int64(n))
	return n, err
}
