package main

import (
	"fmt"
	"time"

	"trio/internal/core"
	"trio/internal/delegation"
	"trio/internal/fsapi"
	"trio/internal/fsfactory"
	"trio/internal/libfs"
	"trio/internal/telemetry"
)

// share-handoff sizes.
const (
	// shareLanes is the number of load goroutines; each owns an equal
	// share of the files. One, because a handoff's larger device
	// accesses sleep: with a second lane, whether such a sleep ended on
	// time or was rounded up to the runtime's 1 ms timer wait depended
	// on what the other lane was doing, and p99 moved by a third from
	// run to run.
	shareLanes   = 1
	shareDomains = 2 // two LibFSes in different trust domains
	shareUIDB    = 2000
)

type shareConfig struct {
	files  int
	seqLen int
	pages  int
}

var shareDefault = shareConfig{files: 256, seqLen: 1 << 17, pages: 48 << 10}

// shareHandoff runs two ArckFS LibFSes in different trust domains on one
// controller. One op hands one file from one domain to the other: open
// for write, check the peer's record and write our own, then release the
// file so the controller verifies it.
type shareHandoff struct {
	cfg    shareConfig
	bodies *bodies
	inst   *fsfactory.Instance
	fsB    *libfs.FS
	poolB  *delegation.Pool
	fs     [shareDomains]*libfs.FS

	paths []string
	sizes []int
	inos  []core.Ino
	last  []blockID // the record each file holds; a file's owner updates it

	ops     [shareLanes][]op
	clients [shareLanes][shareDomains]fsapi.Client
	wbuf    [shareLanes][]byte
	rbuf    [shareLanes][]byte
}

func (s *shareHandoff) lanes() int                    { return shareLanes }
func (s *shareHandoff) instance() *fsfactory.Instance { return s.inst }
func (s *shareHandoff) extras() extras                { return extras{} }

// audit has nothing to do: every op checks the record it takes over
// against the one the peer wrote last.
func (s *shareHandoff) audit([][]access) error { return nil }

// accessors: the lanes plus both domains' delegation pools.
func (s *shareHandoff) accessors() int { return shareLanes + shareDomains*poolWorkers }

// firstWriter is the domain the preloaded record of file f names.
func firstWriter(f uint32) uint32 { return f / shareLanes % shareDomains }

func (s *shareHandoff) generate(seed int64) {
	s.bodies = newBodies(seed)
	s.sizes = shareSizes(s.cfg.files)
	s.paths = make([]string, s.cfg.files)
	for f := range s.paths {
		s.paths[f] = fmt.Sprintf("/s%03d", f)
	}
	for d := range s.ops {
		var owned []uint32
		for f := d; f < s.cfg.files; f += shareLanes {
			owned = append(owned, uint32(f))
		}
		s.ops[d] = shareOps(seed, d, owned, firstWriter, s.cfg.seqLen)
		s.wbuf[d] = make([]byte, blockSize)
		s.bodies.fill(s.wbuf[d], d)
		s.rbuf[d] = make([]byte, blockSize)
	}
}

func (s *shareHandoff) setup(bool) error {
	inst, err := mountArck(s.cfg.pages)
	if err != nil {
		return err
	}
	s.inst = inst
	s.poolB = delegation.NewPool(inst.Dev, poolWorkers)
	s.fsB, err = libfs.New(inst.Ctl.Register(shareUIDB, shareUIDB, 0, 0), libfs.Config{CPUs: stackCPUs, Pool: s.poolB})
	if err != nil {
		return err
	}
	s.fs = [shareDomains]*libfs.FS{inst.Arck, s.fsB}

	// Domain A creates every file world-writable and writes its content;
	// block 0 is the record handoffs pass back and forth.
	c := inst.NewClient(0)
	s.inos = make([]core.Ino, s.cfg.files)
	s.last = make([]blockID, s.cfg.files)
	for f := range s.paths {
		buf := make([]byte, s.sizes[f])
		for b := 0; b < s.sizes[f]/blockSize; b++ {
			dst := buf[b*blockSize : (b+1)*blockSize]
			s.bodies.fill(dst, f+b)
			id := blockID{file: uint32(f), block: uint32(b), writer: preloadWho, seq: preloadSeq}
			if b == 0 {
				id.writer = firstWriter(uint32(f))
				s.last[f] = id
			}
			s.bodies.stamp(dst, id)
		}
		fh, err := c.Create(s.paths[f], 0o666)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		_, err = fh.WriteAt(buf, 0)
		fh.Close()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		info, err := c.Stat(s.paths[f])
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		s.inos[f] = core.Ino(info.Ino)
	}
	// The creator reached the new files through its mapping of the root
	// directory; releasing it hands every file over to the controller,
	// so either domain can take any of them.
	if err := inst.Arck.Session().UnmapFile(core.RootIno); err != nil {
		return fmt.Errorf("preload: release root: %w", err)
	}
	for d := range s.clients {
		for dom := range s.clients[d] {
			s.clients[d][dom] = s.fs[dom].NewClient(d)
		}
	}
	return nil
}

// do runs handoff i of lane d.
func (s *shareHandoff) do(d int, i uint64, r *recorder) error {
	o := s.ops[d][i%uint64(len(s.ops[d]))]
	f, dom := o.file, o.arg
	c := s.clients[d][dom]
	sp := telemetry.StartSpan(d, "bench.handoff", "bench")
	defer sp.End()
	t0 := time.Now()

	cs := sp.Child("call.libfs.Open", "bench")
	fh, err := c.Open(s.paths[f], true)
	cs.End()
	r.call(t0, clsMeta, false, 0, err)
	if err != nil {
		r.op(t0, true)
		return nil
	}
	failed := false
	t := time.Now()
	cs = sp.Child("call.libfs.ReadAt", "bench")
	n, err := fh.ReadAt(s.rbuf[d], 0)
	cs.End()
	r.call(t, clsRead, false, n, err)
	if err != nil {
		failed = true
	} else {
		got, cerr := s.bodies.check(s.rbuf[d], f, 0)
		if cerr != nil {
			fh.Close()
			return cerr
		}
		if got != s.last[f] {
			fh.Close()
			return fmt.Errorf("%s record is %+v, want the peer's last record %+v", s.paths[f], got, s.last[f])
		}
		id := blockID{file: f, block: 0, writer: dom, seq: uint64(d)<<40 | (i + 1)}
		s.bodies.stamp(s.wbuf[d], id)
		t = time.Now()
		cs = sp.Child("call.libfs.WriteAt", "bench")
		n, err = fh.WriteAt(s.wbuf[d], 0)
		cs.End()
		r.call(t, clsWrite, false, n, err)
		if err != nil {
			failed = true
		} else {
			s.last[f] = id
		}
	}
	fh.Close()
	t = time.Now()
	cs = sp.Child("call.controller.UnmapFile", "bench")
	err = s.fs[dom].Session().UnmapFile(s.inos[f])
	cs.End()
	r.release(t, err)
	r.op(t0, failed || err != nil)
	return nil
}

// check verifies every file with the controller, then reads each back:
// block 0 holds the last record written, the rest the preload.
func (s *shareHandoff) check() (int64, error) {
	if checked, bad, first := s.inst.Ctl.VerifyAll(); bad != 0 {
		return 0, fmt.Errorf("VerifyAll: %d of %d files bad: %s", bad, checked, first)
	}
	c := s.inst.NewClient(0)
	var live int64
	for f, path := range s.paths {
		fh, err := c.Open(path, false)
		if err != nil {
			return 0, fmt.Errorf("check: %w", err)
		}
		buf := make([]byte, s.sizes[f])
		n, err := fh.ReadAt(buf, 0)
		size := fh.Size()
		fh.Close()
		if err != nil || n != len(buf) || size != int64(len(buf)) {
			return 0, fmt.Errorf("check: read %s: %d of %d bytes (size %d), %v", path, n, len(buf), size, err)
		}
		for b := 0; b < len(buf)/blockSize; b++ {
			id, err := s.bodies.check(buf[b*blockSize:(b+1)*blockSize], uint32(f), uint32(b))
			if err != nil {
				return 0, fmt.Errorf("check: %s: %w", path, err)
			}
			if b == 0 && id != s.last[f] {
				return 0, fmt.Errorf("check: %s record is %+v, want %+v", path, id, s.last[f])
			}
			if b > 0 && (id.writer != preloadWho || id.seq != preloadSeq) {
				return 0, fmt.Errorf("check: %s block %d was overwritten: %+v", path, b, id)
			}
		}
		live += size
	}
	return live, nil
}

func (s *shareHandoff) close() {
	if s.fsB != nil {
		s.fsB.Close()
	}
	if s.poolB != nil {
		s.poolB.Close()
	}
	if s.inst != nil {
		s.inst.Close()
	}
}
