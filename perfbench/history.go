package main

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// access is one acknowledged wire-small call that reads or changes file
// contents, as its lane logged it. The final check and the audit of the
// reads compare the blocks found with these.
//
// Times are µs since the window began, plus one so that 0 can stand for
// the preload: a start is rounded down and an end up, so every ordering
// the audit concludes from them also holds for the true times.
type access struct {
	t0, t1 uint32
	seq    uint32 // the lane's op index: a WRITE or APPEND stamps it into its block
	got    uint32 // READ: seq of the block read; APPEND: block index it landed at
	file   uint32
	block  uint8 // READ, WRITE: block of the file
	kind   opKind
	writer uint8 // READ: writer of the block read (noWriter for the preload)
}

// noWriter stands for the preload in an access's writer.
const noWriter = 0xff

// logAccess appends a call that started at t0 and took d to the lane's
// log.
func (r *recorder) logAccess(a access, t0 time.Time, d time.Duration) {
	from := t0.Sub(r.w.begin)
	a.t0 = uint32(from/time.Microsecond) + 1
	a.t1 = uint32((from+d+time.Microsecond-1)/time.Microsecond) + 1
	r.log = append(r.log, a)
}

// wid names one written block: the lane that wrote it and its seq.
type wid struct {
	writer uint8
	seq    uint32
}

var preloadWid = wid{writer: noWriter}

func widOf(id blockID) wid {
	if id.writer == preloadWho {
		return preloadWid
	}
	return wid{uint8(id.writer), uint32(id.seq)}
}

// wrec is one acknowledged WRITE or APPEND.
type wrec struct {
	t0, t1 uint32
	id     wid
	at     uint32 // APPEND: block index it landed at
}

// wireExpect is what the final state of wire-small must be, derived
// from the logs: for each (file, block) the writes that may be the last
// one, and for each file the appended blocks that may or must be there.
type wireExpect struct {
	last    [][]wid  // per file*wireBaseBlocks+block; nil means the preload
	appends [][]arec // per file
}

// arec is an APPEND the final state may hold; must is set when it
// started after the file's last SETATTR was acknowledged, so no
// truncation can have removed it.
type arec struct {
	id   wid
	at   uint32
	must bool
}

// auditWire checks every READ in the logs against the acknowledged
// WRITEs of its block, and derives the expected final state.
//
// A READ may return a write that started before the READ ended, unless
// some other write started after that write was acknowledged and was
// itself acknowledged before the READ began. The final value of a block
// is a write no other write started after. An APPEND acknowledged
// before the file's last SETATTR began is gone; one that started after
// that SETATTR was acknowledged is at the block the call returned.
func auditWire(logs [][]access, files int) (*wireExpect, error) {
	writes := make([][]wrec, files*wireBaseBlocks)
	appends := make([][]wrec, files)
	trunc := make([]wrec, files) // each file's last SETATTR
	for l, log := range logs {
		for _, a := range log {
			switch a.kind {
			case opWrite:
				k := int(a.file)*wireBaseBlocks + int(a.block)
				writes[k] = append(writes[k], wrec{a.t0, a.t1, wid{uint8(l), a.seq}, 0})
			case opAppend:
				appends[a.file] = append(appends[a.file], wrec{a.t0, a.t1, wid{uint8(l), a.seq}, a.got})
			case opSetattr:
				if a.t1 > trunc[a.file].t1 {
					trunc[a.file] = wrec{t0: a.t0, t1: a.t1}
				}
			}
		}
	}

	// Per block: writes by acknowledgement, the latest start among the
	// first j of them, and the writes by id.
	maxStart := make([][]uint32, len(writes))
	byID := make([][]wrec, len(writes))
	for k, ws := range writes {
		slices.SortFunc(ws, func(a, b wrec) int { return cmp.Compare(a.t1, b.t1) })
		m := make([]uint32, len(ws))
		var hi uint32
		for j, w := range ws {
			hi = max(hi, w.t0)
			m[j] = hi
		}
		maxStart[k] = m
		byID[k] = slices.Clone(ws)
		slices.SortFunc(byID[k], cmpWrec)
	}
	find := func(ws []wrec, id wid) (wrec, bool) {
		if id == preloadWid {
			return wrec{id: id}, true
		}
		j, ok := slices.BinarySearchFunc(ws, wrec{id: id}, cmpWrec)
		if !ok {
			return wrec{}, false
		}
		return ws[j], true
	}

	for _, log := range logs {
		for _, a := range log {
			if a.kind != opRead {
				continue
			}
			k := int(a.file)*wireBaseBlocks + int(a.block)
			id := wid{a.writer, a.got}
			w, ok := find(byID[k], id)
			switch {
			case !ok:
				return nil, fmt.Errorf("READ of file %d block %d returned writer %d seq %d, which no acknowledged WRITE wrote", a.file, a.block, id.writer, id.seq)
			case w.t0 > a.t1:
				return nil, fmt.Errorf("READ of file %d block %d returned writer %d seq %d, written after the READ returned", a.file, a.block, id.writer, id.seq)
			}
			done := sort.Search(len(writes[k]), func(j int) bool { return writes[k][j].t1 >= a.t0 })
			if done > 0 && maxStart[k][done-1] > w.t1 {
				return nil, fmt.Errorf("READ of file %d block %d returned stale writer %d seq %d: a later WRITE was acknowledged before the READ began", a.file, a.block, id.writer, id.seq)
			}
		}
	}

	exp := &wireExpect{last: make([][]wid, len(writes)), appends: make([][]arec, files)}
	for k, ws := range writes {
		if len(ws) == 0 {
			continue
		}
		latest := maxStart[k][len(ws)-1]
		for _, w := range ws {
			if w.t1 >= latest {
				exp.last[k] = append(exp.last[k], w.id)
			}
		}
	}
	for f, as := range appends {
		t := trunc[f]
		for _, a := range as {
			if t.t1 == 0 || a.t1 >= t.t0 {
				exp.appends[f] = append(exp.appends[f], arec{a.id, a.at, a.t0 > t.t1})
			}
		}
	}
	return exp, nil
}

func cmpWrec(a, b wrec) int {
	if c := cmp.Compare(a.id.writer, b.id.writer); c != 0 {
		return c
	}
	return cmp.Compare(a.id.seq, b.id.seq)
}

// checkFile checks the final blocks of file f, read back whole.
func (e *wireExpect) checkFile(b *bodies, f int, data []byte) error {
	n := len(data) / blockSize
	if len(data)%blockSize != 0 || n < wireBaseBlocks {
		return fmt.Errorf("file %d has size %d", f, len(data))
	}
	blk := func(i int) []byte { return data[i*blockSize : (i+1)*blockSize] }
	for i := 0; i < wireBaseBlocks; i++ {
		id, err := b.check(blk(i), uint32(f), uint32(i))
		if err != nil {
			return err
		}
		last := e.last[f*wireBaseBlocks+i]
		if len(last) == 0 {
			last = []wid{preloadWid}
		}
		if !slices.Contains(last, widOf(id)) {
			return fmt.Errorf("file %d block %d holds writer %d seq %d, not the last acknowledged WRITE (one of %v)", f, i, id.writer, id.seq, last)
		}
	}
	as := e.appends[f]
	found := make([]wid, n)
	for i := wireBaseBlocks; i < n; i++ {
		id, err := b.check(blk(i), uint32(f), appendedBlock)
		if err != nil {
			return err
		}
		found[i] = widOf(id)
		j := slices.IndexFunc(as, func(a arec) bool { return a.id == found[i] })
		if j < 0 || as[j].at != uint32(i) {
			return fmt.Errorf("file %d block %d holds writer %d seq %d, which no surviving APPEND put there", f, i, id.writer, id.seq)
		}
	}
	for _, a := range as {
		if a.must && (int(a.at) >= n || found[a.at] != a.id) {
			return fmt.Errorf("file %d lost the APPEND of writer %d seq %d at block %d (size %d)", f, a.id.writer, a.id.seq, a.at, len(data))
		}
	}
	return nil
}
