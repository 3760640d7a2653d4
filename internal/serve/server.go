// The protocol server: per-connection pipelining machinery mapped onto
// an fsapi.FS.
//
// Each connection runs three roles wired by channels:
//
//	reader ──reqs──▶ workers(×N) ──replies──▶ writer
//
// The reader decodes frames and admits them under the per-connection
// in-flight cap (the backpressure the tentpole asks for: a client that
// pipelines past the cap blocks in the transport, it cannot balloon
// server memory). Workers execute out of order — each owns its own
// fsapi.Client and a small open-file cache — so a slow READ never
// blocks the metadata traffic behind it. The writer drains every
// completed reply it can see into one transport write (reply batching);
// xids, not arrival order, tell the client which request each reply
// answers.
//
// The server holds no per-client open-file state the protocol depends
// on: worker file caches are a pure performance cache. A mutation that
// removes, renames or truncates-by-create a file logs that file's
// inode, and each worker retires just the cached opens of it
// (filecache.go).
//
// Every frame lives in one pooled buffer from the read to the last use:
// the reader reads each request into its own buffer and hands it to a
// worker, which builds the reply in another pooled buffer that the
// writer recycles once the batch is on the transport.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/fsapi"
	"trio/internal/telemetry"
)

// Options tunes a Server. Zero values select the defaults.
type Options struct {
	// Workers is the number of executor goroutines per connection
	// (default 4). Keep conns×workers near the device's per-node
	// concurrency sweet spot; more buys nothing but contention.
	Workers int
	// MaxInflight caps admitted-but-unreplied requests per connection
	// (default 64). This is the pipelining depth the server grants.
	MaxInflight int
	// DRCSize bounds the duplicate-request cache (default 1024 entries).
	DRCSize int
	// FileCache bounds each worker's open-file cache (default 16).
	FileCache int
	// HandleCap bounds the server-side handle→path table (default
	// 65536 entries). The table is an LRU: a handle evicted under
	// pressure answers ErrStale on its next use — the legitimate
	// stateless-server verdict — instead of the table growing without
	// bound on read-mostly workloads.
	HandleCap int
	// ServerInflight caps admitted-but-unreplied requests across ALL
	// connections (default 1024). Past it the server sheds new
	// requests with StatusBusy instead of queueing without bound — one
	// flooding tenant degrades into client-side backoff, not server
	// collapse. Shedding happens in the reader, before the DRC and
	// before dispatch, so a Busy verdict is never cached and a same-xid
	// retry is always safe.
	ServerInflight int
	// DRCTTL expires duplicate-request-cache verdicts by age (default
	// 2 minutes) in addition to the DRCSize FIFO cap, so a long-lived
	// quiet client cannot pin stale verdicts. It must comfortably
	// exceed any client's retry horizon.
	DRCTTL time.Duration
	// ReadTimeout/WriteTimeout, when positive and the transport
	// supports deadlines (net.Conn, the loopback duplex), bound each
	// frame read / reply batch write so a dead peer is shed instead of
	// holding a connection's goroutines forever. Default 0 = off.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.DRCSize <= 0 {
		o.DRCSize = 1024
	}
	if o.FileCache <= 0 {
		o.FileCache = 16
	}
	if o.HandleCap <= 0 {
		o.HandleCap = 65536
	}
	if o.ServerInflight <= 0 {
		o.ServerInflight = 1024
	}
	if o.DRCTTL <= 0 {
		o.DRCTTL = 2 * time.Minute
	}
	return o
}

// nsStripes is the number of name locks in nsLocks.
const nsStripes = 64

// nsLocks serializes the namespace mutations whose cache invalidation
// depends on knowing which inode a name held. REMOVE, RENAME and
// CREATE stat a name and then change it; another mutation of the same
// name in between would make them log the wrong inode and leave
// workers serving cached opens of a removed or replaced file. CREATE,
// MKDIR, REMOVE and RMDIR hold rename shared and the name's stripe;
// RENAME, which can move a whole subtree and is rare, holds rename
// exclusively. Mutations of different names run in parallel.
type nsLocks struct {
	rename sync.RWMutex
	names  [nsStripes]sync.Mutex
}

// lockName locks out RENAME and every other mutation of path's stripe.
func (l *nsLocks) lockName(path string) *sync.Mutex {
	l.rename.RLock()
	m := &l.names[pathGen(path)%nsStripes]
	m.Lock()
	return m
}

func (l *nsLocks) unlockName(m *sync.Mutex) {
	m.Unlock()
	l.rename.RUnlock()
}

// Server serves the trio wire protocol from one mounted fsapi.FS.
type Server struct {
	fs   fsapi.FS
	opts Options
	tab  *handleTab
	drc  *drc

	root     fsapi.Handle
	rootAttr Attr

	// inval names the inodes whose cached opens mutations retired;
	// ns keeps each logged inode the one its mutation changed.
	inval invalLog
	ns    nsLocks
	// cpuSeq spreads worker fsapi.Clients across CPU hints.
	cpuSeq atomic.Int64

	// inflight is the server-wide admitted-request count; admission
	// control sheds with StatusBusy past opts.ServerInflight.
	inflight atomic.Int64
	// draining: no new connections, no new requests (Busy), in-flight
	// work completes and flushes. Set by Drain.
	draining atomic.Bool

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
}

// admit claims one slot of the server-wide in-flight budget; callers
// that get false must shed the request with StatusBusy.
func (s *Server) admit() bool {
	if s.inflight.Add(1) > int64(s.opts.ServerInflight) {
		s.inflight.Add(-1)
		return false
	}
	return true
}

func (s *Server) release() { s.inflight.Add(-1) }

// NewServer mounts a protocol server over fs. It probes fs for native
// handle support (fsapi.HandleClient) and mints the root handle.
func NewServer(fs fsapi.FS, opts Options) (*Server, error) {
	c := fs.NewClient(0)
	_, native := c.(fsapi.HandleClient)
	o := opts.withDefaults()
	s := &Server{
		fs:    fs,
		opts:  o,
		tab:   newHandleTab(native, o.HandleCap),
		drc:   newDRC(o.DRCSize, o.DRCTTL),
		conns: make(map[*srvConn]struct{}),
	}
	info, err := c.Stat("/")
	if err != nil {
		return nil, fmt.Errorf("serve: stat root: %w", err)
	}
	s.root = s.tab.mint("/", info)
	s.tab.pin(s.root)
	s.rootAttr = AttrOf(info)
	return s, nil
}

// Root reports the root handle HELLO hands out.
func (s *Server) Root() fsapi.Handle { return s.root }

// Serve accepts connections from l until it fails (or s is closed).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close tears down every active connection. The mounted FS is not
// closed; the caller owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.closeTransport()
	}
	return nil
}

// Drain shuts the server down gracefully: stop accepting connections,
// shed NEW requests with StatusBusy, let every admitted request
// complete and its reply reach the transport, then Close. The ctx
// bounds how long to wait; on expiry the remaining connections are
// torn down hard and ctx's error is returned.
//
// Acked-durability contract: any mutation whose reply was written
// before Drain returns is durable and will never be re-executed —
// draining never cancels work the server already accepted.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for {
		if s.quiesced() {
			return s.Close()
		}
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// quiesced reports whether every admitted request has completed AND its
// reply has been handed to the transport.
func (s *Server) quiesced() bool {
	if s.inflight.Load() != 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.unflushed.Load() != 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// per-connection machinery
// ---------------------------------------------------------------------

// request is one admitted frame. buf is the pooled buffer the reader
// read it into (body aliases it); the worker owns and recycles it.
type request struct {
	xid  uint32
	proc Proc
	body []byte
	buf  *[]byte
}

type srvConn struct {
	srv *Server
	rw  io.ReadWriteCloser

	clientID atomic.Uint64 // set by HELLO; requests before it are fatal

	sem     chan struct{} // in-flight cap
	reqs    chan request
	replies chan *[]byte // complete reply frames (pooled buffers)

	// unflushed counts replies enqueued but not yet handed to the
	// transport; Drain waits for it to reach zero so an acked mutation's
	// reply is actually on the wire before the server goes away.
	unflushed atomic.Int64

	// rd/wd are the transport's deadline hooks, nil when it has none.
	rd interface{ SetReadDeadline(time.Time) error }
	wd interface{ SetWriteDeadline(time.Time) error }

	workerWG sync.WaitGroup
	writerWG sync.WaitGroup
	closer   sync.Once
}

// sendReply enqueues one complete reply frame, keeping the unflushed
// count Drain polls in step. Every reply path must come through here.
func (c *srvConn) sendReply(frame *[]byte) {
	c.unflushed.Add(1)
	c.replies <- frame
}

// sendStatus replies with a bare status frame.
func (c *srvConn) sendStatus(xid uint32, st Status) {
	bp := getBuf()
	*bp = EndFrame(BeginFrame(*bp, xid, uint8(st)), 0)
	c.sendReply(bp)
}

// poolBufSize is the capacity of a fresh pooled buffer: a 4 KiB data
// payload plus the largest header around one (a WRITE request, 29
// bytes with the length prefix) fits without regrowing.
const poolBufSize = 4<<10 + 64

// bufPool recycles frame buffers on both ends of the wire. It holds
// pointers so that Put stores one without allocating; a buffer that
// grew for a larger frame goes back grown.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, poolBufSize); return &b }}

// getBuf returns an empty pooled buffer; putBuf recycles one. The
// holder of the pointer owns the buffer until putBuf.
func getBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

func putBuf(bp *[]byte) { bufPool.Put(bp) }

// readPooled reads one frame into a fresh pooled buffer, so the frame
// can be handed off while the reader goes on. The caller owns the
// buffer (fr.Body aliases it); on error it is already recycled.
func readPooled(r io.Reader) (Frame, *[]byte, error) {
	bp := getBuf()
	fr, b, err := ReadFrame(r, *bp)
	*bp = b
	if err != nil {
		putBuf(bp)
		return Frame{}, nil, err
	}
	return fr, bp, nil
}

// ServeConn runs one connection to completion. It is the entry point
// shared by the TCP accept loop and the in-process loopback transport.
func (s *Server) ServeConn(rw io.ReadWriteCloser) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		rw.Close()
		return errors.New("serve: server closed")
	}
	c := &srvConn{
		srv:     s,
		rw:      rw,
		sem:     make(chan struct{}, s.opts.MaxInflight),
		reqs:    make(chan request, s.opts.MaxInflight),
		replies: make(chan *[]byte, s.opts.MaxInflight+1),
	}
	if s.opts.ReadTimeout > 0 {
		c.rd, _ = rw.(interface{ SetReadDeadline(time.Time) error })
	}
	if s.opts.WriteTimeout > 0 {
		c.wd, _ = rw.(interface{ SetWriteDeadline(time.Time) error })
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	mConns.Inc()
	mConnsTotal.Inc()

	c.writerWG.Add(1)
	go c.writeLoop()
	for i := 0; i < s.opts.Workers; i++ {
		c.workerWG.Add(1)
		go c.worker(i)
	}

	err := c.readLoop()

	close(c.reqs)
	c.workerWG.Wait()
	close(c.replies)
	c.writerWG.Wait()
	c.closeTransport()

	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	mConns.Add(-1)
	return err
}

func (c *srvConn) closeTransport() {
	c.closer.Do(func() { c.rw.Close() })
}

// readLoop decodes and admits requests until the transport ends.
func (c *srvConn) readLoop() error {
	for {
		if c.rd != nil {
			c.rd.SetReadDeadline(time.Now().Add(c.srv.opts.ReadTimeout))
		}
		fr, bp, err := readPooled(c.rw)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, ErrBadFrame) {
				mBadFrame.Inc()
			}
			return err
		}
		if Proc(fr.Op) == ProcHello {
			err := c.hello(fr)
			putBuf(bp)
			if err != nil {
				return err
			}
			continue
		}
		if c.clientID.Load() == 0 {
			// Requests before HELLO have no DRC identity; drop the
			// connection rather than guess.
			putBuf(bp)
			mBadFrame.Inc()
			return fmt.Errorf("%w: request before HELLO", ErrBadFrame)
		}
		if Proc(fr.Op) >= procCount {
			// Unknown proc: answer StatusBadProc here, never dispatch.
			// The op byte is attacker-controlled and downstream paths
			// index fixed-size per-proc tables with it.
			putBuf(bp)
			mBadFrame.Inc()
			c.sendStatus(fr.Xid, StatusBadProc)
			continue
		}
		if c.srv.draining.Load() || !c.srv.admit() {
			// Overload shedding / drain. This verdict is issued BEFORE
			// the DRC claim and before dispatch: the request did not
			// execute and nothing was cached, so a same-xid retry after
			// the client's backoff is always safe.
			putBuf(bp)
			mShed.Inc()
			c.sendStatus(fr.Xid, StatusBusy)
			continue
		}
		c.sem <- struct{}{} // backpressure: cap in-flight
		mInflight.Inc()
		c.reqs <- request{xid: fr.Xid, proc: Proc(fr.Op), body: fr.Body, buf: bp}
	}
}

// hello handles the handshake inline on the reader, so clientID is
// visible before any pipelined request behind it is dispatched.
func (c *srvConn) hello(fr Frame) error {
	d := NewDec(fr.Body)
	magic, ver, id := d.U32(), d.U16(), d.U64()
	if d.Err() != nil || magic != Magic || ver != ProtoVersion || id == 0 {
		c.sendStatus(fr.Xid, StatusInval)
		return fmt.Errorf("%w: bad HELLO", ErrBadFrame)
	}
	c.clientID.Store(id)
	bp := getBuf()
	reply := BeginFrame(*bp, fr.Xid, uint8(StatusOK))
	reply = AppendHandle(reply, c.srv.root)
	reply = AppendAttr(reply, c.srv.rootAttr)
	*bp = EndFrame(reply, 0)
	c.sendReply(bp)
	mRPCs.Inc()
	mProcs[ProcHello].Inc()
	return nil
}

// writeLoop batches completed replies into single transport writes.
func (c *srvConn) writeLoop() {
	defer c.writerWG.Done()
	var out []byte
	broken := false
	for first := range c.replies {
		out = append(out[:0], *first...)
		putBuf(first)
		n := int64(1)
	drain:
		for {
			select {
			case f, ok := <-c.replies:
				if !ok {
					break drain
				}
				out = append(out, *f...)
				putBuf(f)
				n++
			default:
				break drain
			}
		}
		if !broken {
			if c.wd != nil {
				c.wd.SetWriteDeadline(time.Now().Add(c.srv.opts.WriteTimeout))
			}
			if _, err := c.rw.Write(out); err != nil {
				broken = true
				c.closeTransport() // unblocks the reader; keep draining
			} else {
				mReplyBatches.Inc()
				mReplyFrames.Add(n)
			}
		}
		// Flushed (or unflushable: the peer is gone and these replies
		// can never be delivered — Drain must not wait on a dead conn).
		c.unflushed.Add(-n)
	}
}

// worker executes admitted requests out of order. Each worker owns a
// private fsapi.Client (the per-thread contract of the FS layer) and a
// bounded open-file cache.
func (c *srvConn) worker(id int) {
	defer c.workerWG.Done()
	client := c.srv.fs.NewClient(int(c.srv.cpuSeq.Add(1)))
	fc := newFileCache(c.srv.opts.FileCache, id, &c.srv.inval, c.srv.tab)
	defer fc.closeAll()
	for req := range c.reqs {
		c.handle(client, fc, id, req)
	}
}

func (c *srvConn) handle(client fsapi.Client, fc *fileCache, id int, req request) {
	var start time.Time
	if telemetry.On() {
		start = time.Now()
	}
	reply := getBuf()
	if nonIdempotent(req.proc) {
		key := drcKey{client: c.clientID.Load(), xid: req.xid}
		entry, dup := c.srv.drc.claim(key, reqFingerprint(req.proc, req.body))
		if dup {
			<-entry.done
			mDRCHits.Inc()
			*reply = append(*reply, entry.reply...)
		} else {
			*reply = c.exec(client, fc, req, *reply)
			c.srv.drc.record(key, entry, *reply)
		}
	} else {
		*reply = c.exec(client, fc, req, *reply)
	}
	putBuf(req.buf)
	c.sendReply(reply)
	<-c.sem
	c.srv.release()
	mInflight.Add(-1)
	mRPCs.IncOn(id)
	mProcs[req.proc].IncOn(id)
	if telemetry.On() {
		mRPCNanos.ObserveSince(start)
	}
}

// dirPath resolves a handle that a namespace op needs as a directory.
// A handle that is not in the table but still resolves to a live
// regular file answers ErrNotDir (the POSIX verdict), not ErrStale.
func (c *srvConn) dirPath(client fsapi.Client, h fsapi.Handle) (string, error) {
	dir, err := c.srv.tab.dirPath(h)
	if err == nil {
		return dir, nil
	}
	if info, serr := c.srv.tab.statHandle(client, h); serr == nil && !info.IsDir {
		return "", fsapi.ErrNotDir
	}
	return "", err
}

// errReply rebuilds buf as a bare status frame.
func errReply(buf []byte, xid uint32, err error) []byte {
	if errors.Is(err, fsapi.ErrStale) {
		mStale.Inc()
	}
	buf = BeginFrame(buf[:0], xid, uint8(StatusOf(err)))
	return EndFrame(buf, 0)
}

// exec runs one request and appends its encoded reply frame to the
// empty buffer buf.
func (c *srvConn) exec(client fsapi.Client, fc *fileCache, req request, buf []byte) []byte {
	s := c.srv
	d := NewDec(req.body)
	ok := func() []byte { return EndFrame(buf, 0) }

	switch req.proc {
	case ProcNull:
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcGetattr:
		h := d.Handle()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		info, err := s.tab.statHandle(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = AppendAttr(buf, AttrOf(info))
		return ok()

	case ProcLookup:
		h, name := d.Handle(), d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(name); err != nil {
			return errReply(buf, req.xid, err)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		path := joinPath(dir, string(name))
		info, err := client.Stat(path)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		nh := s.tab.mint(path, info)
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = AppendHandle(buf, nh)
		buf = AppendAttr(buf, AttrOf(info))
		return ok()

	case ProcRead:
		h, off, n := d.Handle(), int64(d.U64()), int(d.U32())
		if d.Err() != nil || n < 0 || n > MaxFrame-64 {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(client, h, false)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		// Encode optimistically: reserve the count field and n payload
		// bytes in one step, read straight into the reply buffer (no
		// bounce copy), patch the count. The reserved bytes are not
		// cleared: ReadAt fills the cnt it returns (holes as zeros) and
		// the frame is cut at cnt, so nothing stale reaches the wire.
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		pos := len(buf)
		buf = appendU32(buf, 0)
		buf = slices.Grow(buf, n)[:pos+4+n]
		cnt, err := f.ReadAt(buf[pos+4:], off)
		if err != nil {
			fc.drop(h, false)
			return errReply(buf, req.xid, err)
		}
		buf = buf[:pos+4+cnt]
		binary.LittleEndian.PutUint32(buf[pos:], uint32(cnt))
		return ok()

	case ProcWrite:
		h, off := d.Handle(), int64(d.U64())
		data := d.Bytes()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		cnt, err := f.WriteAt(data, off)
		if err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = appendU32(buf, uint32(cnt))
		return ok()

	case ProcAppend:
		h := d.Handle()
		data := d.Bytes()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		at, err := f.Append(data)
		if err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = appendU64(buf, uint64(at))
		return ok()

	case ProcCreate, ProcMkdir:
		h := d.Handle()
		mode := d.U16()
		name := d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(name); err != nil {
			return errReply(buf, req.xid, err)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		path := joinPath(dir, string(name))
		m := s.ns.lockName(path)
		defer s.ns.unlockName(m)
		if req.proc == ProcCreate {
			f, cerr := client.Create(path, mode)
			if cerr != nil {
				return errReply(buf, req.xid, cerr)
			}
			f.Close()
		} else {
			if merr := client.Mkdir(path, mode); merr != nil {
				return errReply(buf, req.xid, merr)
			}
		}
		info, err := client.Stat(path)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		nh := s.tab.mint(path, info)
		if req.proc == ProcCreate {
			// Creating over an existing name truncates that inode:
			// cached opens of it must not serve the old content.
			s.inval.add(info.Ino)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		buf = AppendHandle(buf, nh)
		buf = AppendAttr(buf, AttrOf(info))
		return ok()

	case ProcRemove, ProcRmdir:
		h := d.Handle()
		name := d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(name); err != nil {
			return errReply(buf, req.xid, err)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		path := joinPath(dir, string(name))
		m := s.ns.lockName(path)
		defer s.ns.unlockName(m)
		// Identify the victim before the namespace changes, but forget
		// its table entry only on success — a failed remove must leave
		// live handles resolvable.
		victim, haveVictim := fsapi.Handle{}, false
		if info, serr := client.Stat(path); serr == nil {
			victim = fsapi.Handle{Ino: info.Ino}
			if !s.tab.native {
				victim.Gen = pathGen(path)
			}
			haveVictim = true
		}
		if req.proc == ProcRemove {
			err = client.Unlink(path)
		} else {
			err = client.Rmdir(path)
		}
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		if haveVictim {
			s.tab.forget(victim)
			s.inval.add(victim.Ino)
		} else {
			// The name appeared between the stat and the remove (a
			// client outside this server made it), so the removed
			// file is unknown: retire every cached open.
			s.inval.flushAll()
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcRename:
		fromH, toH := d.Handle(), d.Handle()
		fromName, toName := d.Name(), d.Name()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		if err := CheckName(fromName); err != nil {
			return errReply(buf, req.xid, err)
		}
		if err := CheckName(toName); err != nil {
			return errReply(buf, req.xid, err)
		}
		fromDir, err := c.dirPath(client, fromH)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		toDir, err := c.dirPath(client, toH)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		from, to := joinPath(fromDir, string(fromName)), joinPath(toDir, string(toName))
		// On success the moved inode's handle follows it to the new
		// path; a replaced destination inode's handle turns stale. A
		// failed rename changes no table state.
		s.ns.rename.Lock()
		defer s.ns.rename.Unlock()
		handleAt := func(p string) (fsapi.Handle, bool) {
			info, serr := client.Stat(p)
			if serr != nil {
				return fsapi.Handle{}, false
			}
			v := fsapi.Handle{Ino: info.Ino}
			if !s.tab.native {
				v.Gen = pathGen(p)
			}
			return v, true
		}
		moved, haveMoved := handleAt(from)
		replaced, haveReplaced := handleAt(to)
		if err := client.Rename(from, to); err != nil {
			return errReply(buf, req.xid, err)
		}
		if haveReplaced {
			s.tab.forget(replaced)
			s.inval.add(replaced.Ino)
		}
		if haveMoved {
			s.tab.remap(moved, from, to)
			s.inval.add(moved.Ino)
		} else {
			// The source appeared after its stat (made outside this
			// server): what moved is unknown.
			s.inval.flushAll()
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcReaddir:
		h, cookie := d.Handle(), int(d.U32())
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		dir, err := c.dirPath(client, h)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		names, err := client.ReadDir(dir)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		// Page the listing: one reply carries at most maxDirPayload
		// bytes of entries plus a continuation cookie (the index of the
		// next unsent entry, 0 = listing complete). Without the cap a
		// big directory would emit a frame past MaxFrame, which the
		// peer rejects — tearing down the connection instead of
		// listing. Index cookies give the usual weak READDIR guarantee:
		// entries mutated between pages may be missed or repeated.
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		cntPos := len(buf)
		buf = appendU32(buf, 0)
		limit := len(buf) + maxDirPayload
		i := cookie
		if i > len(names) {
			i = len(names)
		}
		n := 0
		for ; i < len(names); i++ {
			if n > 0 && len(buf)+2+len(names[i]) > limit {
				break
			}
			buf = AppendString(buf, names[i])
			n++
		}
		binary.LittleEndian.PutUint32(buf[cntPos:], uint32(n))
		next := uint32(0)
		if i < len(names) {
			next = uint32(i)
		}
		buf = appendU32(buf, next)
		return ok()

	case ProcSetattr:
		h, size := d.Handle(), int64(d.U64())
		if d.Err() != nil || size < 0 {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		if err := f.Truncate(size); err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()

	case ProcCommit:
		h := d.Handle()
		if d.Err() != nil {
			return errReply(buf, req.xid, fsapi.ErrInval)
		}
		f, err := fc.get(client, h, true)
		if err != nil {
			return errReply(buf, req.xid, err)
		}
		if err := f.Sync(); err != nil {
			fc.drop(h, true)
			return errReply(buf, req.xid, err)
		}
		buf = BeginFrame(buf, req.xid, uint8(StatusOK))
		return ok()
	}

	buf = BeginFrame(buf, req.xid, uint8(StatusBadProc))
	return ok()
}
