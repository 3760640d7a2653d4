package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"trio/internal/fsapi"
	"trio/internal/telemetry"
)

// Small versions of the workloads, so the tests run in seconds.
func smallWorkloads() map[string]func() workload {
	return map[string]func() workload{
		"wire-small":    func() workload { return &wireSmall{cfg: wireConfig{files: 64, seqLen: 512, pages: 8 << 10}} },
		"share-handoff": func() workload { return &shareHandoff{cfg: shareConfig{files: 8, seqLen: 64, pages: 4 << 10}} },
	}
}

func opsOf(w workload) [][]op {
	switch w := w.(type) {
	case *wireSmall:
		return w.ops[:]
	case *shareHandoff:
		return w.ops[:]
	}
	return nil
}

func TestSeedFixesOpSequence(t *testing.T) {
	for name, mk := range smallWorkloads() {
		a, b, c := mk(), mk(), mk()
		a.generate(7)
		b.generate(7)
		c.generate(8)
		if !reflect.DeepEqual(opsOf(a), opsOf(b)) {
			t.Errorf("%s: seed 7 generated two different op sequences", name)
		}
		if reflect.DeepEqual(opsOf(a), opsOf(c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", name)
		}
	}
}

// Every share-handoff op must hand its file to the domain that did not
// write it last, and a lane alternates domains.
func TestShareOpsTransferOwnership(t *testing.T) {
	s := &shareHandoff{cfg: shareDefault}
	s.generate(3)
	last := map[uint32]uint32{}
	for d, ops := range s.ops {
		for i, o := range ops {
			prev, ok := last[o.file]
			if !ok {
				prev = firstWriter(o.file)
			}
			if o.arg == prev {
				t.Fatalf("lane %d op %d: domain %d takes file %d it wrote last", d, i, o.arg, o.file)
			}
			if i > 0 && o.arg == ops[i-1].arg {
				t.Fatalf("lane %d op %d: domain %d twice in a row", d, i, o.arg)
			}
			if int(o.file)%shareLanes != d {
				t.Fatalf("lane %d op %d: file %d belongs to the other lane", d, i, o.file)
			}
			last[o.file] = o.arg
		}
	}
}

// runOps runs exactly n ops per lane on a set-up workload, audits the
// lanes' logs and checks the final state.
func runOps(t *testing.T, w workload, n uint64) {
	t.Helper()
	recs := newOpWindow(n).run(w.lanes(), w.do, nil)
	var logs [][]access
	for _, r := range recs {
		if r.mismatch != nil {
			t.Fatal(r.mismatch)
		}
		if r.failed != 0 {
			t.Fatalf("%d calls failed", r.failed)
		}
		logs = append(logs, r.log)
	}
	if err := w.audit(logs); err != nil {
		t.Fatal(err)
	}
	if _, err := w.check(); err != nil {
		t.Fatal(err)
	}
}

func setUp(t *testing.T, w workload, traced bool) {
	t.Helper()
	w.generate(11)
	if err := w.setup(traced); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
}

func TestWorkloadsRunClean(t *testing.T) {
	for name, mk := range smallWorkloads() {
		t.Run(name, func(t *testing.T) {
			w := mk()
			setUp(t, w, false)
			runOps(t, w, 200)
		})
	}
}

// A traced wire-small run serves through the benchmark's shim, and the
// server still hands out native handles (no path-table fallback).
func TestTracedWireKeepsNativeHandles(t *testing.T) {
	w := smallWorkloads()["wire-small"]().(*wireSmall)
	setUp(t, w, true)
	c := w.inst.NewClient(0)
	for f, h := range w.handles {
		info, err := c.Stat("/" + wireDir + "/" + w.names[f])
		if err != nil {
			t.Fatal(err)
		}
		if want := (fsapi.Handle{Ino: info.Ino}); h != want {
			t.Fatalf("%s: the server handed out %+v, the native handle is %+v", w.names[f], h, want)
		}
	}
	telemetry.Default().Enable()
	telemetry.EnableTracing(1 << 12)
	defer telemetry.Default().Disable()
	defer telemetry.DisableTracing()
	runOps(t, w, 100)
	if _, calls := w.fsShim.totals(); calls == 0 {
		t.Fatal("the server made no calls through the shim")
	}
}

// The final check of wire-small holds the file system to what was
// acknowledged: a block set back to an older write, an acknowledged
// APPEND that is gone and one applied twice all fail it.
func TestCheckHoldsAcknowledgedWrites(t *testing.T) {
	damages := map[string]func(t *testing.T, w *wireSmall, f int, fh fsapi.File, a arec){
		"overwritten": func(t *testing.T, w *wireSmall, f int, fh fsapi.File, _ arec) {
			for b := 0; b < wireBaseBlocks; b++ {
				if w.expect.last[f*wireBaseBlocks+b] == nil {
					continue
				}
				blk := make([]byte, blockSize)
				w.bodies.fill(blk, f+b)
				w.bodies.stamp(blk, blockID{file: uint32(f), block: uint32(b), writer: preloadWho, seq: preloadSeq})
				if _, err := fh.WriteAt(blk, int64(b)*blockSize); err != nil {
					t.Fatal(err)
				}
				return
			}
			t.Skip("no WRITE to the file")
		},
		"append lost": func(t *testing.T, w *wireSmall, f int, fh fsapi.File, a arec) {
			if err := fh.Truncate(int64(a.at) * blockSize); err != nil {
				t.Fatal(err)
			}
		},
		"append twice": func(t *testing.T, w *wireSmall, f int, fh fsapi.File, a arec) {
			blk := make([]byte, blockSize)
			if _, err := fh.ReadAt(blk, int64(a.at)*blockSize); err != nil {
				t.Fatal(err)
			}
			if _, err := fh.Append(blk); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			w := smallWorkloads()["wire-small"]().(*wireSmall)
			setUp(t, w, false)
			runOps(t, w, 300)
			// The hottest file with an APPEND that must have survived.
			f, a := -1, arec{}
			for g := range w.names {
				for _, x := range w.expect.appends[g] {
					if x.must && (f < 0 || len(w.expect.appends[g]) > len(w.expect.appends[f])) {
						f, a = g, x
					}
				}
			}
			if f < 0 {
				t.Fatal("no APPEND survives to the final state")
			}
			fh, err := w.inst.NewClient(1).Open("/"+wireDir+"/"+w.names[f], true)
			if err != nil {
				t.Fatal(err)
			}
			damage(t, w, f, fh, a)
			fh.Close()
			if _, err := w.check(); err == nil {
				t.Fatal("the check passed")
			}
		})
	}
}

// A READ may not return a write that a later, completed write replaced
// before the READ began, nor one never acknowledged.
func TestAuditCatchesStaleRead(t *testing.T) {
	write := func(t0, t1, seq uint32) access {
		return access{kind: opWrite, t0: t0, t1: t1, seq: seq, file: 1, block: 2}
	}
	read := func(t0, t1, seq uint32) access {
		return access{kind: opRead, t0: t0, t1: t1, got: seq, file: 1, block: 2}
	}
	writes := []access{write(10, 20, 1), write(30, 40, 2)}
	for _, c := range []struct {
		read access
		ok   bool
	}{
		{read(50, 60, 2), true},
		{read(35, 60, 1), true},  // the second write was not yet acknowledged
		{read(25, 60, 2), true},  // overlaps the second write
		{read(50, 60, 1), false}, // stale
		{read(50, 60, 3), false}, // never written
		{read(5, 8, 1), false},   // returned before the write began
	} {
		logs := [][]access{writes, {c.read}}
		if _, err := auditWire(logs, 4); (err == nil) != c.ok {
			t.Errorf("read %+v: audit error %v, want ok=%v", c.read, err, c.ok)
		}
	}
}

func TestBlockCheck(t *testing.T) {
	b := newBodies(1)
	blk := make([]byte, blockSize)
	b.fill(blk, 5)
	b.stamp(blk, blockID{file: 3, block: 9, writer: 1, seq: 42})
	if id, err := b.check(blk, 3, 9); err != nil || id.seq != 42 || id.writer != 1 {
		t.Fatalf("valid block: %+v, %v", id, err)
	}
	if _, err := b.check(blk, 3, 8); err == nil {
		t.Error("a block of another position passed")
	}
	for _, at := range []int{0, 5, 17, 30, hdrSize, blockSize - 1} {
		bad := slices.Clone(blk)
		bad[at] ^= 0x40
		if _, err := b.check(bad, 3, 9); err == nil {
			t.Errorf("flipped byte %d passed", at)
		}
	}
}

// A block corrupted through the file system must fail the final check
// of every workload.
func TestCheckCatchesCorruptedBlock(t *testing.T) {
	for name, mk := range smallWorkloads() {
		t.Run(name, func(t *testing.T) {
			w := mk()
			setUp(t, w, false)
			var path string
			switch w := w.(type) {
			case *wireSmall:
				path = "/" + wireDir + "/" + w.names[3]
			case *shareHandoff:
				path = w.paths[3]
			}
			c := w.instance().NewClient(1)
			fh, err := c.Open(path, true)
			if err != nil {
				t.Fatal(err)
			}
			junk := make([]byte, blockSize)
			junk[100] = 1
			if _, err := fh.WriteAt(junk, 0); err != nil {
				t.Fatal(err)
			}
			fh.Close()
			if err := w.audit(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := w.check(); err == nil {
				t.Fatal("check passed a corrupted block")
			}
		})
	}
}

// The traced run's fsapi shim must keep the server on its native handle
// path: clients of an FS with handles stay fsapi.HandleClients.
func TestShimKeepsHandleClient(t *testing.T) {
	inst, err := mountArck(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, ok := inst.NewClient(0).(fsapi.HandleClient); !ok {
		t.Fatal("ArckFS client is not a HandleClient")
	}
	if _, ok := newFSShim(inst).NewClient(0).(fsapi.HandleClient); !ok {
		t.Fatal("shim hides fsapi.HandleClient")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The metrics the program prints are exactly those BENCHMARK.json
// declares, and every name is well formed.
func TestMetricNames(t *testing.T) {
	var e2e, layer metrics
	endToEnd(nil, &phase{}, &e2e)
	layerMetrics(traceInputs{}, &layer)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  metrics
		want []struct{ Name, Unit string }
	}{{e2e, spec.EndToEnd}, {layer, spec.PerLayer}} {
		var names []string
		for _, n := range c.got.names {
			if !metricName.MatchString(n) {
				t.Errorf("bad metric name %q", n)
			}
			names = append(names, n)
		}
		var want []string
		for _, m := range c.want {
			want = append(want, m.Name)
			if got, ok := c.got.vals[m.Name]; ok && got.Unit != m.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
		slices.Sort(names)
		slices.Sort(want)
		if !slices.Equal(names, want) {
			t.Errorf("metrics %v\nBENCHMARK.json %v", names, want)
		}
	}
}
