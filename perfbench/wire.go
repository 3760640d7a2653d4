package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/serve"
	"trio/internal/telemetry"
)

// wire-small sizes.
const (
	wireBaseBlocks = 4                        // preloaded 16 KiB per file
	wireTruncAt    = 64 << 10                 // SETATTR back to 16 KiB past this
	wireSessions   = 2                        // connections
	wireDepth      = 4                        // calls outstanding per session
	wireLanes      = wireSessions * wireDepth // load goroutines
	wireBufs       = 8                        // payload buffers per lane
	wireDuplexBuf  = 1 << 20                  // loopback buffer per direction
	wireDir        = "w"                      // the one directory
	wireBaseSize   = wireBaseBlocks * blockSize
)

type wireConfig struct {
	files  int
	seqLen int // ops generated per lane; lanes wrap around
	pages  int
}

var wireDefault = wireConfig{files: 4096, seqLen: 1 << 16, pages: 96 << 10}

// wireSmall is trio-serve over in-process loopback: two Sessions with
// four calls outstanding each, against the default ArckFS stack.
type wireSmall struct {
	cfg    wireConfig
	bodies *bodies
	inst   *fsfactory.Instance
	srv    *serve.Server
	conns  sync.WaitGroup
	sess   [wireSessions]*serve.Session
	expect *wireExpect // what the final state must be, from the audit

	dir     fsapi.Handle
	names   []string
	handles []fsapi.Handle
	trunc   []atomic.Bool // a SETATTR of the file is in flight

	ops     [wireLanes][]op
	fresh   [wireLanes][]string
	wbuf    [wireLanes][wireBufs][]byte
	rbuf    [wireLanes][]byte
	fsShim  *fsShim       // traced runs only
	wireCnt *wireCounters // traced runs only
}

func (w *wireSmall) lanes() int                    { return wireLanes }
func (w *wireSmall) instance() *fsfactory.Instance { return w.inst }

// accessors: every server worker, plus the delegation pool.
func (w *wireSmall) accessors() int { return wireSessions*serverWorkers + poolWorkers }

func wireName(f int) string { return fmt.Sprintf("f%04d", f) }

// generate builds the op sequences, fresh names and payloads. It runs
// before set-up is timed; nothing is generated inside the window.
func (w *wireSmall) generate(seed int64) {
	w.bodies = newBodies(seed)
	for l := range w.ops {
		var creates int
		w.ops[l], creates = wireOps(seed, l, w.cfg.files, w.cfg.seqLen)
		w.fresh[l] = make([]string, creates)
		for k := range w.fresh[l] {
			w.fresh[l][k] = fmt.Sprintf("t%d.%d", l, k)
		}
		for b := range w.wbuf[l] {
			w.wbuf[l][b] = make([]byte, blockSize)
			w.bodies.fill(w.wbuf[l][b], l*wireBufs+b)
		}
		w.rbuf[l] = make([]byte, blockSize)
	}
	w.names = make([]string, w.cfg.files)
	for f := range w.names {
		w.names[f] = wireName(f)
	}
}

// setup builds the device and stack, preloads the files and connects
// the sessions. traced routes the server through the benchmark's fsapi
// and transport shims.
func (w *wireSmall) setup(traced bool) error {
	inst, err := mountArck(w.cfg.pages)
	if err != nil {
		return err
	}
	w.inst = inst
	c := inst.NewClient(0)
	if err := c.Mkdir("/"+wireDir, 0o755); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	blk := make([]byte, wireBaseSize)
	for f := 0; f < w.cfg.files; f++ {
		for b := 0; b < wireBaseBlocks; b++ {
			dst := blk[b*blockSize : (b+1)*blockSize]
			w.bodies.fill(dst, f+b)
			w.bodies.stamp(dst, blockID{file: uint32(f), block: uint32(b), writer: preloadWho, seq: preloadSeq})
		}
		fh, err := c.Create("/"+wireDir+"/"+w.names[f], 0o644)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		_, err = fh.WriteAt(blk, 0)
		fh.Close()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	var exported fsapi.FS = inst
	if traced {
		w.fsShim = newFSShim(inst)
		w.wireCnt = &wireCounters{}
		exported = w.fsShim
	}
	if w.srv, err = serve.NewServer(exported, serve.Options{}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	for s := range w.sess {
		redial := func() (io.ReadWriteCloser, error) {
			cli, srvEnd := serve.NewDuplex(wireDuplexBuf)
			if w.wireCnt != nil {
				srvEnd = &countingRW{ReadWriteCloser: srvEnd, c: w.wireCnt}
			}
			w.conns.Add(1)
			go func() {
				defer w.conns.Done()
				w.srv.ServeConn(srvEnd) //nolint:errcheck // ends when the session closes
			}()
			return cli, nil
		}
		if w.sess[s], err = serve.NewSession(redial, serve.SessionOptions{ClientID: uint64(s + 1)}); err != nil {
			return err
		}
	}
	s := w.sess[0]
	if w.dir, _, err = s.Lookup(ctx, s.Root(), wireDir); err != nil {
		return fmt.Errorf("lookup %s: %w", wireDir, err)
	}
	w.handles = make([]fsapi.Handle, w.cfg.files)
	for f := range w.handles {
		if w.handles[f], _, err = s.Lookup(ctx, w.dir, w.names[f]); err != nil {
			return fmt.Errorf("lookup %s: %w", w.names[f], err)
		}
	}
	w.trunc = make([]atomic.Bool, w.cfg.files)
	return nil
}

// do runs op i of a lane. Each call is one op. A call that fails
// counts as failed, which makes the run wrong; the lane goes on.
func (w *wireSmall) do(l int, i uint64, r *recorder) error {
	o := w.ops[l][i%uint64(len(w.ops[l]))]
	ctx := r.w.ctx
	s := w.sess[l/wireDepth]
	h := w.handles[o.file]
	sp := telemetry.StartSpan(l, "bench.wire", "bench")
	defer sp.End()
	// The server's spans cannot name this one as parent: the wire
	// carries no span context, so the client span is the whole record.
	cs := sp.Child("call.serve", "bench")
	defer cs.End()
	switch o.kind {
	case opRead:
		buf := w.rbuf[l]
		t0 := time.Now()
		n, err := s.Read(ctx, h, int64(o.arg)*blockSize, buf)
		d, _ := r.call(t0, clsRead, true, n, err)
		if err != nil {
			return nil
		}
		if n != blockSize {
			return fmt.Errorf("READ %s block %d returned %d bytes", w.names[o.file], o.arg, n)
		}
		id, cerr := w.bodies.check(buf, o.file, o.arg)
		if cerr != nil {
			return cerr
		}
		got := widOf(id)
		r.logAccess(access{kind: opRead, file: o.file, block: uint8(o.arg), writer: got.writer, got: got.seq}, t0, d)
		return nil
	case opWrite:
		buf := w.wbuf[l][i%wireBufs]
		w.bodies.stamp(buf, blockID{file: o.file, block: o.arg, writer: uint32(l), seq: i})
		t0 := time.Now()
		n, err := s.Write(ctx, h, int64(o.arg)*blockSize, buf)
		d, _ := r.call(t0, clsWrite, true, n, err)
		if err != nil {
			return nil
		}
		if n != blockSize {
			return fmt.Errorf("WRITE %s block %d wrote %d bytes", w.names[o.file], o.arg, n)
		}
		r.logAccess(access{kind: opWrite, file: o.file, block: uint8(o.arg), seq: uint32(i)}, t0, d)
		return nil
	case opAppend:
		buf := w.wbuf[l][i%wireBufs]
		w.bodies.stamp(buf, blockID{file: o.file, block: appendedBlock, writer: uint32(l), seq: i})
		t0 := time.Now()
		at, err := s.Append(ctx, h, buf)
		d, _ := r.call(t0, clsWrite, true, blockSize, err)
		if err != nil {
			return nil
		}
		if at%blockSize != 0 || at < wireBaseSize {
			return fmt.Errorf("APPEND to %s landed at %d", w.names[o.file], at)
		}
		r.logAccess(access{kind: opAppend, file: o.file, seq: uint32(i), got: uint32(at / blockSize)}, t0, d)
		if at+blockSize > wireTruncAt && w.trunc[o.file].CompareAndSwap(false, true) {
			t0 = time.Now()
			err = s.Setattr(ctx, h, wireBaseSize)
			d, _ = r.call(t0, clsWrite, true, 0, err)
			if err == nil {
				r.logAccess(access{kind: opSetattr, file: o.file, seq: uint32(i)}, t0, d)
			}
			w.trunc[o.file].Store(false)
		}
		return nil
	case opGetattr:
		t0 := time.Now()
		a, err := s.Getattr(ctx, h)
		r.call(t0, clsMeta, true, 0, err)
		if err == nil && (a.IsDir || a.Size < wireBaseSize || a.Size%blockSize != 0) {
			return fmt.Errorf("GETATTR %s: size %d dir %v", w.names[o.file], a.Size, a.IsDir)
		}
		return nil
	case opLookup:
		t0 := time.Now()
		got, _, err := s.Lookup(ctx, w.dir, w.names[o.file])
		r.call(t0, clsMeta, true, 0, err)
		if err == nil && got != h {
			return fmt.Errorf("LOOKUP %s: handle %v, want %v", w.names[o.file], got, h)
		}
		return nil
	case opCreate:
		name := w.fresh[l][o.arg]
		t0 := time.Now()
		_, a, err := s.Create(ctx, w.dir, name, 0o644)
		r.call(t0, clsMeta, true, 0, err)
		if err != nil {
			return nil
		}
		if a.Size != 0 || a.IsDir {
			return fmt.Errorf("CREATE %s: size %d dir %v", name, a.Size, a.IsDir)
		}
		t0 = time.Now()
		err = s.Remove(ctx, w.dir, name)
		r.call(t0, clsMeta, true, 0, err)
		return nil
	}
	return fmt.Errorf("wire-small: unexpected op kind %d", o.kind)
}

// quiesce stops the sessions and the server so the state can be
// checked.
func (w *wireSmall) quiesce() {
	for _, s := range w.sess {
		if s != nil {
			s.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.conns.Wait()
}

// audit checks every READ against the acknowledged WRITEs and derives
// the final state the check expects.
func (w *wireSmall) audit(logs [][]access) error {
	var err error
	w.expect, err = auditWire(logs, w.cfg.files)
	return err
}

// check reads every file back through the file system and compares it
// with what the audit expects: each of the first blocks holds its last
// acknowledged WRITE, and the appended blocks those APPENDs the last
// SETATTR left. The directory holds the preloaded files and nothing
// else. It returns the live bytes.
func (w *wireSmall) check() (int64, error) {
	w.quiesce()
	if checked, bad, first := w.inst.Ctl.VerifyAll(); bad != 0 {
		return 0, fmt.Errorf("VerifyAll: %d of %d files bad: %s", bad, checked, first)
	}
	c := w.inst.NewClient(0)
	var live int64
	buf := make([]byte, 0, 1<<20)
	for f, name := range w.names {
		fh, err := c.Open("/"+wireDir+"/"+name, false)
		if err != nil {
			return 0, fmt.Errorf("check: %w", err)
		}
		size := fh.Size()
		if int64(cap(buf)) < size {
			buf = make([]byte, 0, size)
		}
		buf = buf[:size]
		n, err := fh.ReadAt(buf, 0)
		fh.Close()
		if err != nil || int64(n) != size {
			return 0, fmt.Errorf("check: read %s: %d bytes, %v", name, n, err)
		}
		if err := w.expect.checkFile(w.bodies, f, buf); err != nil {
			return 0, fmt.Errorf("check: %s: %w", name, err)
		}
		live += size
	}
	names, err := c.ReadDir("/" + wireDir)
	if err != nil {
		return 0, fmt.Errorf("check: %w", err)
	}
	if len(names) != len(w.names) {
		return 0, fmt.Errorf("check: /%s holds %d names, want the %d preloaded files", wireDir, len(names), len(w.names))
	}
	return live, nil
}

func (w *wireSmall) close() {
	w.quiesce()
	if w.inst != nil {
		w.inst.Close()
	}
}

// extras reads the shims' counters (zero when untraced).
func (w *wireSmall) extras() extras {
	var e extras
	if w.fsShim != nil {
		e.fsNS, e.fsCalls = w.fsShim.totals()
	}
	if w.wireCnt != nil {
		e.srvWrites = w.wireCnt.writes.Load()
		e.srvBytes = w.wireCnt.bytes.Load()
	}
	return e
}
