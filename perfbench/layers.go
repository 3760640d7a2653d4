package main

import (
	"runtime"
	"strings"

	"trio/internal/controller"
	"trio/internal/telemetry"
)

// counterDelta is the device and crossing counters of one window.
type counterDelta struct {
	reads, readBytes, writes, writeBytes int64
	persists, fences, trapOps, ipcOps    int64
}

func deviceCounters(d telemetry.Snap) counterDelta {
	return counterDelta{
		reads: d.Get("nvm.reads"), readBytes: d.Get("nvm.read_bytes"),
		writes: d.Get("nvm.writes"), writeBytes: d.Get("nvm.write_bytes"),
		persists: d.Get("nvm.persists"), fences: d.Get("nvm.fences"),
		trapOps: d.Get("nvm.cost_trap_ops"), ipcOps: d.Get("nvm.cost_ipc_ops"),
	}
}

// spanStat is the self time of one span name over a window.
type spanStat struct {
	selfNS float64
	n      int64
}

func (s spanStat) meanUs() float64 { return ratio(s.selfNS/1e3, float64(s.n)) }

// spanSelfTimes aggregates the self time of every span name in the
// trace ring over [t0, t1): a span's duration minus the part its
// recorded children cover. The ring keeps only the newest spans, so a
// span is used only when it started after every overwritten span
// ended; its children are then all still in the ring.
func spanSelfTimes(recs []telemetry.SpanRecord, t0, t1 int64) map[string]spanStat {
	const margin = 2_000_000 // ns of recording skew allowed at the ring's tail
	oldestEnd := int64(1<<63 - 1)
	children := make(map[uint64]int64, len(recs))
	for _, r := range recs {
		if r.Instant() {
			continue
		}
		if e := r.Start + r.Dur; e < oldestEnd {
			oldestEnd = e
		}
		if r.Parent != 0 {
			children[r.Parent] += r.Dur
		}
	}
	from := t0
	if oldestEnd+margin > from {
		from = oldestEnd + margin
	}
	out := map[string]spanStat{}
	for _, r := range recs {
		if r.Instant() || r.Start < from || r.Start+r.Dur > t1 {
			continue
		}
		s := out[r.Name]
		s.selfNS += float64(r.Dur - children[r.ID])
		s.n++
		out[r.Name] = s
	}
	return out
}

// traceInputs is everything the per-layer figures are computed from.
type traceInputs struct {
	plain, traced summary // untraced and traced windows of one run
	tel           telemetry.Snap
	ctl           controller.Snapshot
	spans         map[string]spanStat
	ex            extras
	mem           runtime.MemStats // delta over the untraced window
	calib         float64
}

// layerMetrics computes the per-layer metrics of a traced run. Figures
// a layer does not produce on a workload come out as 0.
func layerMetrics(in traceInputs, out *metrics) {
	t, d, c := in.traced, in.tel, in.ctl
	ops := float64(t.ops + t.tailOps) // everything the counters saw
	perOp := func(v int64) float64 { return ratio(float64(v), ops) }
	meanUs := func(ns, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }

	rpcs := d.Get("serve.rpcs")
	exec := d.Hist("serve.rpc_ns").Mean() / 1e3
	fs := ratio(float64(in.ex.fsNS)/1e3, float64(rpcs))
	out.add("serve.exec_us", exec, "us")
	out.add("serve.fs_us", fs, "us")
	out.add("serve.self_us", exec-fs, "us")
	wire := 0.0
	if rpcs > 0 {
		wire = t.meanOpUs - exec
	}
	out.add("serve.wire_us", wire, "us")
	out.add("serve.frames_per_batch", ratio(float64(rpcs), float64(in.ex.srvWrites)), "count")
	out.add("serve.bytes_per_op", perOp(in.ex.srvBytes), "B")
	out.add("serve.drc_hits", float64(d.Get("serve.drc_hits")), "count")
	out.add("serve.shed_frac", ratio(float64(d.Get("serve.shed")), float64(rpcs)), "frac")

	out.add("libfs.read_us", d.Hist("libfs.read_ns").Mean()/1e3, "us")
	out.add("libfs.write_us", d.Hist("libfs.write_ns").Mean()/1e3, "us")
	out.add("libfs.ns_ops_per_op", perOp(d.Get("libfs.namespace_ops")), "count")
	var libSelf spanStat
	for name, s := range in.spans {
		if strings.HasPrefix(name, "libfs.") {
			libSelf.selfNS += s.selfNS
			libSelf.n += s.n
		}
	}
	out.add("libfs.self_us", libSelf.meanUs(), "us")
	out.add("libfs.self_spans", float64(libSelf.n), "count")
	for _, name := range []string{"index.lookup", "index.link", "alloc.pages", "nvm.persist", "delegation.copyout", "delegation.wait"} {
		s := in.spans[name]
		out.add(name+"_us", s.meanUs(), "us")
		out.add(name+"_spans", float64(s.n), "count")
	}
	hits := d.Get("alloc.mag_hits")
	out.add("alloc.mag_hit_frac", ratio(float64(hits), float64(hits+d.Get("alloc.mag_refills"))), "frac")
	out.add("alloc.pages_per_op", perOp(d.Get("alloc.pages_out")), "count")

	dl := d.Get("delegation.batches_delegated")
	out.add("delegation.delegated_frac", ratio(float64(dl), float64(dl+d.Get("delegation.batches_inline"))), "frac")

	out.add("controller.map_us", meanUs(int64(c.MapTime), c.MapCount), "us")
	out.add("controller.unmap_us", meanUs(int64(c.UnmapTime), c.UnmapCount), "us")
	out.add("controller.verify_us", meanUs(int64(c.VerifyTime), c.VerifyCount), "us")
	out.add("controller.rebuild_us", meanUs(int64(c.RebuildTime), c.RebuildCount), "us")
	out.add("controller.maps_per_op", perOp(c.MapCount), "count")
	out.add("controller.verifies_per_op", perOp(c.VerifyCount), "count")
	dev := deviceCounters(d)
	out.add("controller.crossings_per_op", perOp(dev.trapOps), "count")
	out.add("controller.release_us", t.releaseUs, "us")

	out.add("verifier.reports_per_op", perOp(d.Get("verifier.reports")), "count")
	out.add("verifier.violations", float64(d.Get("verifier.violations")), "count")

	out.add("mmu.checks_per_op", perOp(d.Get("mmu.checks")), "count")
	out.add("mmu.faults_per_op", perOp(d.Get("mmu.faults")), "count")
	out.add("mmu.shootdowns_per_op", perOp(d.Get("mmu.shootdowns")), "count")

	out.add("nvm.write_amp", ratio(float64(dev.writeBytes), float64(t.writeBytes)), "ratio")
	out.add("nvm.read_amp", ratio(float64(dev.readBytes), float64(t.readBytes)), "ratio")
	out.add("nvm.persists_per_op", perOp(dev.persists), "count")
	out.add("nvm.fences_per_op", perOp(dev.fences), "count")
	modeled := modeledNS(dev)
	out.add("nvm.modeled_us_per_op", ratio(modeled/1e3, ops), "us")
	out.add("nvm.modeled_frac", ratio(modeled, float64(t.busy)), "frac")
	out.add("nvm.spin_calib_ratio", in.calib, "ratio")

	pops := float64(in.plain.ops + in.plain.tailOps)
	out.add("go.allocs_per_op", ratio(float64(in.mem.Mallocs), pops), "count")
	out.add("go.alloc_bytes_per_op", ratio(float64(in.mem.TotalAlloc), pops), "B")
	out.add("go.gc_pause_ms", float64(in.mem.PauseTotalNs)/1e6, "ms")
	out.add("go.gc_cycles", float64(in.mem.NumGC), "count")

	out.add("bench.trace_overhead_frac", 1-ratio(t.opsPerS, in.plain.opsPerS), "frac")
	out.add("bench.fail_frac", ratio(float64(in.plain.failed+t.failed), float64(in.plain.attempted+t.attempted)), "frac")
	out.add("bench.traced_ops", float64(t.ops), "count")
	out.add("bench.window_ops_per_s", in.plain.winOpsPerS, "1/s")
	out.add("bench.window_p99_us", in.plain.winP99, "us")
	out.add("host.nproc", float64(runtime.NumCPU()), "count")
	out.add("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
}

// memDelta is the runtime counters' growth between two reads.
func memDelta(a, b *runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		Mallocs:      b.Mallocs - a.Mallocs,
		TotalAlloc:   b.TotalAlloc - a.TotalAlloc,
		PauseTotalNs: b.PauseTotalNs - a.PauseTotalNs,
		NumGC:        b.NumGC - a.NumGC,
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
