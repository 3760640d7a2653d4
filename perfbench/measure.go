package main

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// class is what kind of call a latency sample belongs to.
type class uint8

const (
	clsOp    class = iota // a whole op made of several calls (share-handoff)
	clsRead               // READ, ReadAt
	clsWrite              // WRITE, APPEND, SETATTR, WriteAt
	clsMeta               // GETATTR, LOOKUP, CREATE, REMOVE, Open, UnmapFile
)

// A sample packs one latency: bits 0-39 the duration in ns, 40-43 the
// class, bit 44 set when the sample is an op of its own, 48-55 the
// slice of the window it ended in.
const (
	durMask  = 1<<40 - 1
	clsShift = 40
	opBit    = 1 << 44
	slcShift = 48
)

// maxSlices bounds how many equal slices a window is cut into.
const maxSlices = 16

// callGrace is how long past the window's end a call may still be
// outstanding before its context expires and it fails.
const callGrace = 30 * time.Second

// window is one closed-loop measurement: lanes run ops from warm-up
// start until end, and only calls that end inside [start, end) count.
type window struct {
	begin, start, end time.Time
	reserveAt         time.Time // halfway through warm-up
	slices            int
	sliceDur          time.Duration
	// opLimit, when positive, runs exactly that many ops per lane and
	// ignores time (tests); every call then lands in slice 0.
	opLimit uint64
	stop    atomic.Bool
	// ctx is the context of the window's calls; it expires callGrace
	// after the window ends, so a call that hangs fails the run.
	ctx    context.Context
	cancel context.CancelFunc
}

func newWindow(warm, dur time.Duration, slices int) *window {
	now := time.Now()
	w := &window{begin: now, start: now.Add(warm), reserveAt: now.Add(warm / 2), slices: slices}
	w.end = w.start.Add(dur)
	w.sliceDur = dur / time.Duration(slices)
	w.ctx, w.cancel = context.WithDeadline(context.Background(), w.end.Add(callGrace))
	return w
}

func newOpWindow(ops uint64) *window {
	w := newWindow(0, time.Hour, 1)
	w.opLimit = ops
	return w
}

// recorder is one lane's measurements; only its lane writes it.
type recorder struct {
	w          *window
	samples    []uint64
	bytes      [maxSlices]int64
	classBytes [clsMeta + 1]int64
	attempted  int64
	failed     int64
	warmCalls  int64
	tailOps    int64 // ops that ended after the window (counters see them)
	busy       time.Duration
	releaseNS  int64 // benchmark-timed UnmapFile calls in the window
	releaseN   int64
	mismatch   error
	log        []access // the lane's acknowledged accesses (wire-small)
}

// slice reports which slice a call ending at t falls in: -1 before the
// window, w.slices after it.
func (r *recorder) slice(t time.Time) int {
	w := r.w
	if t.Before(w.start) {
		return -1
	}
	if w.opLimit == 0 && !t.Before(w.end) {
		return w.slices
	}
	k := int(t.Sub(w.start) / w.sliceDur)
	if k >= w.slices {
		k = w.slices - 1
	}
	return k
}

func (r *recorder) add(c class, isOp bool, k int, d time.Duration) {
	if r.samples == nil {
		r.reserve(time.Now())
	}
	s := uint64(d)&durMask | uint64(c)<<clsShift | uint64(k)<<slcShift
	if isOp {
		s |= opBit
	}
	r.samples = append(r.samples, s)
}

// reserve sizes the sample buffer and the access log once, halfway
// through warm-up, from the rate so far, so that neither the window nor
// the memory figures taken over it see them grow.
func (r *recorder) reserve(now time.Time) {
	w := r.w
	n := 1024
	if el := now.Sub(w.begin).Seconds(); el > 0 && r.warmCalls > 0 {
		rate := float64(r.warmCalls) / el
		n += int(rate * w.end.Sub(w.start).Seconds() * 1.5)
		r.log = slices.Grow(r.log, n*len(r.log)/int(r.warmCalls))
	}
	r.samples = make([]uint64, 0, n)
}

// call records one call that started at t0 and moved n user bytes. It
// reports the call's duration and whether it ended inside the window.
// Every call counts as attempted, and one that fails counts as failed
// wherever it ends: the run is then wrong.
func (r *recorder) call(t0 time.Time, c class, isOp bool, n int, err error) (time.Duration, bool) {
	t1 := time.Now()
	d := t1.Sub(t0)
	r.attempted++
	if err != nil {
		r.failed++
		return d, false
	}
	k := r.slice(t1)
	switch {
	case k < 0:
		r.warmCalls++
		if r.samples == nil && !t1.Before(r.w.reserveAt) {
			r.reserve(t1)
		}
		return d, false
	case k >= r.w.slices:
		if isOp {
			r.tailOps++
		}
		return d, false
	}
	r.add(c, isOp, k, d)
	r.bytes[k] += int64(n)
	r.classBytes[c] += int64(n)
	if isOp {
		r.busy += d
	}
	return d, true
}

// op records a whole multi-call op that started at t0.
func (r *recorder) op(t0 time.Time, failed bool) {
	t1 := time.Now()
	k := r.slice(t1)
	switch {
	case k < 0:
		return
	case k >= r.w.slices:
		r.tailOps++
		return
	}
	if failed {
		return
	}
	d := t1.Sub(t0)
	r.add(clsOp, true, k, d)
	r.busy += d
}

// release records a benchmark-timed UnmapFile.
func (r *recorder) release(t0 time.Time, err error) {
	if d, in := r.call(t0, clsMeta, false, 0, err); in && err == nil {
		r.releaseNS += int64(d)
		r.releaseN++
	}
}

// over reports whether the lane should stop before op i.
func (w *window) over(i uint64) bool {
	if w.stop.Load() {
		return true
	}
	if w.opLimit > 0 {
		return i >= w.opLimit
	}
	return !time.Now().Before(w.end)
}

// laneFunc runs op i of a lane; a returned error is a content mismatch
// and stops every lane.
type laneFunc func(lane int, i uint64, r *recorder) error

// run drives lanes closed-loop until the window ends and returns their
// recorders once every lane has stopped. atStart runs once the window
// opens (after warm-up) while the lanes keep going.
func (w *window) run(lanes int, do laneFunc, atStart func()) []*recorder {
	recs := make([]*recorder, lanes)
	var wg sync.WaitGroup
	for l := range recs {
		r := &recorder{w: w}
		recs[l] = r
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := uint64(0); !w.over(i); i++ {
				if err := do(l, i, r); err != nil {
					r.mismatch = err
					w.stop.Store(true)
					return
				}
			}
		}(l)
	}
	if atStart != nil {
		time.Sleep(time.Until(w.start))
		atStart()
	}
	wg.Wait()
	w.cancel()
	return recs
}

// summary is the end-to-end view of one window.
type summary struct {
	opsPerS, mbPerS                 float64
	p50, p90, p99                   float64 // µs, all ops
	winOpsPerS, winP99              float64 // over the whole window, not per slice
	readP50, readP90                float64
	writeP50, writeP90              float64
	metaP50, metaP90                float64
	meanOpUs                        float64
	ops, tailOps, attempted, failed int64
	busy                            time.Duration
	releaseUs                       float64
	readBytes, writeBytes           int64
	mismatch                        error
}

// summarize computes each figure per slice and reports the median over
// slices, which keeps one disturbed slice from moving the result. A
// percentile is taken from a slice only when at least ten samples lie
// beyond it; otherwise it comes from the whole window. The whole-window
// op rate and p99 are kept beside them, so that a stall hitting fewer
// than half the slices still shows somewhere.
func summarize(w *window, recs []*recorder) summary {
	var s summary
	type key struct {
		slice int
		sel   int // 0 all ops, 1 read, 2 write, 3 meta
	}
	groups := map[key][]float64{}
	var bytes [maxSlices]int64
	var opsPer [maxSlices]int64
	var sumOp float64
	var relNS, relN int64
	for _, r := range recs {
		for _, x := range r.samples {
			d := float64(x&durMask) / 1e3
			c := class(x >> clsShift & 0xf)
			k := int(x >> slcShift & 0xff)
			if x&opBit != 0 {
				groups[key{k, 0}] = append(groups[key{k, 0}], d)
				opsPer[k]++
				sumOp += d
			}
			if c != clsOp {
				groups[key{k, int(c)}] = append(groups[key{k, int(c)}], d)
			}
		}
		for k := range bytes {
			bytes[k] += r.bytes[k]
		}
		s.tailOps += r.tailOps
		s.attempted += r.attempted
		s.failed += r.failed
		s.busy += r.busy
		s.readBytes += r.classBytes[clsRead]
		s.writeBytes += r.classBytes[clsWrite]
		relNS += r.releaseNS
		relN += r.releaseN
		if s.mismatch == nil && r.mismatch != nil {
			s.mismatch = r.mismatch
		}
	}
	for _, g := range groups {
		slices.Sort(g)
	}
	secs := w.sliceDur.Seconds()
	var opsRate, mbRate []float64
	for k := 0; k < w.slices; k++ {
		s.ops += opsPer[k]
		opsRate = append(opsRate, float64(opsPer[k])/secs)
		mbRate = append(mbRate, float64(bytes[k])/1e6/secs)
	}
	if w.opLimit > 0 {
		// No clock-bound window: rates are meaningless but kept finite.
		opsRate, mbRate = []float64{float64(s.ops)}, []float64{0}
	}
	s.opsPerS = median(opsRate)
	s.mbPerS = median(mbRate)
	whole := func(sel int) []float64 {
		var all []float64
		for k := 0; k < w.slices; k++ {
			all = append(all, groups[key{k, sel}]...)
		}
		slices.Sort(all)
		return all
	}
	pct := func(sel int, q float64) float64 {
		var per []float64
		for k := 0; k < w.slices; k++ {
			g := groups[key{k, sel}]
			if float64(len(g))*(1-q) >= 10 {
				per = append(per, quantile(g, q))
			}
		}
		if len(per) > 0 {
			return median(per)
		}
		return quantile(whole(sel), q)
	}
	s.p50, s.p90, s.p99 = pct(0, .5), pct(0, .9), pct(0, .99)
	s.winP99 = quantile(whole(0), .99)
	if w.opLimit == 0 {
		s.winOpsPerS = float64(s.ops) / w.end.Sub(w.start).Seconds()
	}
	s.readP50, s.readP90 = pct(int(clsRead), .5), pct(int(clsRead), .9)
	s.writeP50, s.writeP90 = pct(int(clsWrite), .5), pct(int(clsWrite), .9)
	s.metaP50, s.metaP90 = pct(int(clsMeta), .5), pct(int(clsMeta), .9)
	if s.ops > 0 {
		s.meanOpUs = sumOp / float64(s.ops)
	}
	if relN > 0 {
		s.releaseUs = float64(relNS) / float64(relN) / 1e3
	}
	return s
}

// quantile is the nearest-rank q-quantile of sorted values (0 if none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of values (0 if none); values is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
