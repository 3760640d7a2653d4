// The wire client: a pipelined connection multiplexer plus an
// fsapi.Client adapter over it.
//
// Conn is the transport half: every typed call allocates an xid,
// registers a completion slot, writes one frame, and parks until the
// demux goroutine delivers the matching reply — so ANY number of
// goroutines naturally share one connection with many requests in
// flight, which is how the load generator drives pipelining depth.
//
// Client/wireFile are the fsapi half: path-addressed calls walk the
// path one LOOKUP per component from the root handle, and File methods
// map straight onto handle-addressed READ/WRITE/APPEND. This adapter is
// what the loopback conformance run pushes through internal/fstest to
// prove the wire preserves in-process semantics.
package serve

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"trio/internal/fsapi"
)

// maxIO caps one data frame's payload so client-side chunking keeps
// every frame under MaxFrame with headroom for headers.
const maxIO = 1 << 20

// Conn is one pipelined client connection.
type Conn struct {
	rw       io.ReadWriteCloser
	clientID uint64

	root     fsapi.Handle
	rootAttr Attr

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextXid uint32
	pending map[uint32]chan reply
	broken  error // demux exit reason; fails all future calls

	closer sync.Once
}

// Dial performs the HELLO handshake over rw and starts the demux.
// clientID must be non-zero and stable across reconnects of the same
// logical client (it keys the server's duplicate-request cache).
func Dial(rw io.ReadWriteCloser, clientID uint64) (*Conn, error) {
	if clientID == 0 {
		return nil, fmt.Errorf("%w: zero client id", fsapi.ErrInval)
	}
	c := &Conn{rw: rw, clientID: clientID, pending: make(map[uint32]chan reply)}
	// Seed the xid space randomly. The server's duplicate-request cache
	// is keyed (clientID, xid) and outlives connections, so restarting
	// at 0 on every Dial would collide a reconnect's new requests with
	// the previous connection's cached replies. The DRC fingerprints
	// requests so a collision degrades to a cache miss, never a wrong
	// replay — the seed keeps collisions rare, the fingerprint keeps
	// them harmless.
	var seed [4]byte
	if _, err := rand.Read(seed[:]); err == nil {
		c.nextXid = binary.LittleEndian.Uint32(seed[:])
	}
	go c.demux()
	root, rootAttr, err := decHandleAttr(c.call(encHello(clientID)))
	if err != nil {
		c.Close()
		return nil, err
	}
	c.root, c.rootAttr = root, rootAttr
	return c, nil
}

// Root reports the root handle from the handshake.
func (c *Conn) Root() fsapi.Handle { return c.root }

// Close tears the connection down; in-flight calls fail.
func (c *Conn) Close() error {
	c.closer.Do(func() { c.rw.Close() })
	return nil
}

// demux reads reply frames and completes the matching pending calls,
// in whatever order the server finished them. Each frame is read into
// its own pooled buffer, which passes to the caller with the reply.
func (c *Conn) demux() {
	var exit error
	for {
		fr, bp, err := readPooled(c.rw)
		if err != nil {
			exit = err
			break
		}
		c.mu.Lock()
		ch, ok := c.pending[fr.Xid]
		delete(c.pending, fr.Xid)
		c.mu.Unlock()
		if !ok {
			putBuf(bp) // late reply for an abandoned call
			continue
		}
		ch <- reply{status: Status(fr.Op), body: fr.Body, buf: bp}
	}
	if exit == nil || errors.Is(exit, io.EOF) {
		exit = fmt.Errorf("%w: connection closed", fsapi.ErrIO)
	}
	c.mu.Lock()
	c.broken = exit
	for xid, ch := range c.pending {
		delete(c.pending, xid)
		close(ch)
	}
	c.mu.Unlock()
}

// call sends one request frame (built by an enc* helper; call owns and
// recycles it) and waits for its reply. A non-OK status comes back as
// the canonical fsapi error.
func (c *Conn) call(frame *[]byte) (reply, error) {
	ch := make(chan reply, 1)
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		putBuf(frame)
		return reply{}, err
	}
	c.nextXid++
	xid := c.nextXid
	c.pending[xid] = ch
	c.mu.Unlock()

	stampXid(*frame, xid)
	c.wmu.Lock()
	_, werr := c.rw.Write(*frame)
	c.wmu.Unlock()
	putBuf(frame)
	if werr != nil {
		c.mu.Lock()
		delete(c.pending, xid)
		c.mu.Unlock()
		return reply{}, fmt.Errorf("%w: %v", fsapi.ErrIO, werr)
	}

	rep, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.broken
		c.mu.Unlock()
		return reply{}, err
	}
	if rep.status != StatusOK {
		rep.release()
		return reply{}, rep.status.Err()
	}
	return rep, nil
}

// ---------------------------------------------------------------------
// typed RPCs
// ---------------------------------------------------------------------

// Getattr stats a handle.
func (c *Conn) Getattr(h fsapi.Handle) (Attr, error) {
	return decAttr(c.call(encHandle(ProcGetattr, h)))
}

// Lookup resolves name under dir.
func (c *Conn) Lookup(dir fsapi.Handle, name string) (fsapi.Handle, Attr, error) {
	return decHandleAttr(c.call(encLookup(dir, name)))
}

// Read reads up to n bytes at off into p (len(p) ≥ n).
func (c *Conn) Read(h fsapi.Handle, off int64, p []byte) (int, error) {
	rep, err := c.call(encRead(h, off, len(p)))
	return decReadInto(rep, err, p)
}

// Write writes p at off.
func (c *Conn) Write(h fsapi.Handle, off int64, p []byte) (int, error) {
	return decWrote(c.call(encWrite(h, off, p)))
}

// Append appends p, returning the offset it landed at.
func (c *Conn) Append(h fsapi.Handle, p []byte) (int64, error) {
	return decAppendedAt(c.call(encAppend(h, p)))
}

// Create creates (or truncates) name under dir.
func (c *Conn) Create(dir fsapi.Handle, name string, mode uint16) (fsapi.Handle, Attr, error) {
	return decHandleAttr(c.call(encMakeNode(ProcCreate, dir, mode, name)))
}

// Mkdir creates a directory under dir.
func (c *Conn) Mkdir(dir fsapi.Handle, name string, mode uint16) (fsapi.Handle, Attr, error) {
	return decHandleAttr(c.call(encMakeNode(ProcMkdir, dir, mode, name)))
}

// Remove unlinks a file name under dir.
func (c *Conn) Remove(dir fsapi.Handle, name string) error {
	return decEmpty(c.call(encRemoveNode(ProcRemove, dir, name)))
}

// Rmdir removes an empty directory name under dir.
func (c *Conn) Rmdir(dir fsapi.Handle, name string) error {
	return decEmpty(c.call(encRemoveNode(ProcRmdir, dir, name)))
}

// Rename moves fromName under fromDir to toName under toDir.
func (c *Conn) Rename(fromDir fsapi.Handle, fromName string, toDir fsapi.Handle, toName string) error {
	return decEmpty(c.call(encRename(fromDir, toDir, fromName, toName)))
}

// Readdir lists the names under a directory handle, following the
// server's continuation cookie until the listing completes — each page
// is one bounded reply frame, so arbitrarily large directories list
// without ever exceeding MaxFrame.
func (c *Conn) Readdir(h fsapi.Handle) ([]string, error) {
	return readdirPages(h, c.call)
}

// Setattr truncates the file a handle names.
func (c *Conn) Setattr(h fsapi.Handle, size int64) error {
	return decEmpty(c.call(encSetattr(h, size)))
}

// Commit syncs the file a handle names.
func (c *Conn) Commit(h fsapi.Handle) error {
	return decEmpty(c.call(encHandle(ProcCommit, h)))
}

// ---------------------------------------------------------------------
// fsapi adapter
// ---------------------------------------------------------------------

// Client adapts a Conn to fsapi.Client: path calls walk component by
// component from the root handle, exactly the walk an NFS client's
// lookup cache would amortize.
type Client struct {
	conn *Conn
}

// NewClient returns an fsapi.Client over conn.
func NewClient(conn *Conn) *Client { return &Client{conn: conn} }

var _ fsapi.Client = (*Client)(nil)

// walk resolves dir components from the root.
func (c *Client) walk(parts []string) (fsapi.Handle, error) {
	h := c.conn.root
	for _, p := range parts {
		nh, _, err := c.conn.Lookup(h, p)
		if err != nil {
			return fsapi.Handle{}, err
		}
		h = nh
	}
	return h, nil
}

// splitForWire splits a path and vets every component, so a hostile
// path fails client-side identically to server-side.
func splitForWire(path string) (dir []string, name string, err error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return nil, "", fsapi.ErrInval
	}
	for _, p := range parts {
		if err := CheckName([]byte(p)); err != nil {
			return nil, "", err
		}
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}

// Create implements fsapi.Client.
func (c *Client) Create(path string, mode uint16) (fsapi.File, error) {
	dir, name, err := splitForWire(path)
	if err != nil {
		return nil, err
	}
	dh, err := c.walk(dir)
	if err != nil {
		return nil, err
	}
	h, a, err := c.conn.Create(dh, name, mode)
	if err != nil {
		return nil, err
	}
	return &wireFile{conn: c.conn, h: h, size: a.Size, writable: true}, nil
}

// Open implements fsapi.Client.
func (c *Client) Open(path string, write bool) (fsapi.File, error) {
	dir, name, err := splitForWire(path)
	if err != nil {
		return nil, err
	}
	dh, err := c.walk(dir)
	if err != nil {
		return nil, err
	}
	h, a, err := c.conn.Lookup(dh, name)
	if err != nil {
		return nil, err
	}
	if a.IsDir {
		return nil, fsapi.ErrIsDir
	}
	return &wireFile{conn: c.conn, h: h, size: a.Size, writable: write}, nil
}

// Mkdir implements fsapi.Client.
func (c *Client) Mkdir(path string, mode uint16) error {
	dir, name, err := splitForWire(path)
	if err != nil {
		return err
	}
	dh, err := c.walk(dir)
	if err != nil {
		return err
	}
	_, _, err = c.conn.Mkdir(dh, name, mode)
	return err
}

// Unlink implements fsapi.Client.
func (c *Client) Unlink(path string) error {
	dir, name, err := splitForWire(path)
	if err != nil {
		return err
	}
	dh, err := c.walk(dir)
	if err != nil {
		return err
	}
	return c.conn.Remove(dh, name)
}

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) error {
	dir, name, err := splitForWire(path)
	if err != nil {
		return err
	}
	dh, err := c.walk(dir)
	if err != nil {
		return err
	}
	return c.conn.Rmdir(dh, name)
}

// Rename implements fsapi.Client.
func (c *Client) Rename(oldPath, newPath string) error {
	fromDir, fromName, err := splitForWire(oldPath)
	if err != nil {
		return err
	}
	toDir, toName, err := splitForWire(newPath)
	if err != nil {
		return err
	}
	fh, err := c.walk(fromDir)
	if err != nil {
		return err
	}
	th, err := c.walk(toDir)
	if err != nil {
		return err
	}
	return c.conn.Rename(fh, fromName, th, toName)
}

// Stat implements fsapi.Client.
func (c *Client) Stat(path string) (fsapi.FileInfo, error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return c.conn.rootAttr.Info("/", c.conn.root), nil
	}
	for _, p := range parts {
		if err := CheckName([]byte(p)); err != nil {
			return fsapi.FileInfo{}, err
		}
	}
	dh, err := c.walk(parts[:len(parts)-1])
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	name := parts[len(parts)-1]
	h, a, err := c.conn.Lookup(dh, name)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	return a.Info(name, h), nil
}

// ReadDir implements fsapi.Client.
func (c *Client) ReadDir(path string) ([]string, error) {
	parts := fsapi.SplitPath(path)
	for _, p := range parts {
		if err := CheckName([]byte(p)); err != nil {
			return nil, err
		}
	}
	h, err := c.walk(parts)
	if err != nil {
		return nil, err
	}
	return c.conn.Readdir(h)
}

// wireFile is an fsapi.File over a handle. The server keeps no open
// state for it: every method is a stateless handle-addressed RPC, and
// Close is purely local.
type wireFile struct {
	conn     *Conn
	h        fsapi.Handle
	writable bool

	mu   sync.Mutex
	size int64
}

var _ fsapi.File = (*wireFile)(nil)

func (f *wireFile) noteSize(end int64) {
	f.mu.Lock()
	if end > f.size {
		f.size = end
	}
	f.mu.Unlock()
}

// ReadAt implements fsapi.File, chunking big reads under maxIO.
func (f *wireFile) ReadAt(b []byte, off int64) (int, error) {
	total := 0
	for total < len(b) {
		n := len(b) - total
		if n > maxIO {
			n = maxIO
		}
		cnt, err := f.conn.Read(f.h, off+int64(total), b[total:total+n])
		if err != nil {
			return total, err
		}
		total += cnt
		if cnt < n {
			break // EOF short read: fsapi contract returns count, nil
		}
	}
	return total, nil
}

// WriteAt implements fsapi.File.
func (f *wireFile) WriteAt(b []byte, off int64) (int, error) {
	if !f.writable {
		return 0, fsapi.ErrPerm
	}
	total := 0
	for total < len(b) {
		n := len(b) - total
		if n > maxIO {
			n = maxIO
		}
		cnt, err := f.conn.Write(f.h, off+int64(total), b[total:total+n])
		total += cnt
		if err != nil {
			return total, err
		}
		if cnt < n {
			return total, fsapi.ErrIO
		}
	}
	f.noteSize(off + int64(total))
	return total, nil
}

// Append implements fsapi.File. Chunked appends would interleave under
// concurrency, so oversized appends are refused rather than torn.
func (f *wireFile) Append(b []byte) (int64, error) {
	if !f.writable {
		return 0, fsapi.ErrPerm
	}
	if len(b) > maxIO {
		return 0, fmt.Errorf("%w: append larger than %d", fsapi.ErrInval, maxIO)
	}
	at, err := f.conn.Append(f.h, b)
	if err != nil {
		return 0, err
	}
	f.noteSize(at + int64(len(b)))
	return at, nil
}

// Truncate implements fsapi.File.
func (f *wireFile) Truncate(size int64) error {
	if !f.writable {
		return fsapi.ErrPerm
	}
	if err := f.conn.Setattr(f.h, size); err != nil {
		return err
	}
	f.mu.Lock()
	f.size = size
	f.mu.Unlock()
	return nil
}

// Size implements fsapi.File. The authoritative size lives server-side
// (another client may have grown the file), so ask; fall back to the
// local shadow only if the wire fails (Size has no error to return).
func (f *wireFile) Size() int64 {
	if a, err := f.conn.Getattr(f.h); err == nil {
		f.mu.Lock()
		f.size = a.Size
		f.mu.Unlock()
		return a.Size
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Sync implements fsapi.File.
func (f *wireFile) Sync() error {
	if !f.writable {
		return nil
	}
	return f.conn.Commit(f.h)
}

// Close implements fsapi.File. Stateless protocol: nothing to release
// server-side.
func (f *wireFile) Close() error { return nil }
