// Command perfbench is the repository's benchmark. It runs one seeded,
// closed-loop workload against the default Trio stacks through their
// public entry points, checks every byte it reads back, and prints its
// metrics, the last line of standard output being one JSON object:
//
//	perfbench --workload wire-small --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the window twice, untraced and then with telemetry and tracing
// on, and reports the per-layer metrics. Run it through run.sh, which
// builds it from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"trio/internal/controller"
	"trio/internal/fsfactory"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// workload is one benchmark workload. generate makes every input from
// the seed before anything is timed; setup builds the device and stack
// and preloads the files; do runs op i of a lane; audit checks the
// lanes' access logs once they have stopped; check verifies the final
// state and returns the live bytes.
type workload interface {
	generate(seed int64)
	setup(traced bool) error
	lanes() int
	do(lane int, i uint64, r *recorder) error
	accessors() int
	audit(logs [][]access) error
	check() (int64, error)
	instance() *fsfactory.Instance
	extras() extras
	close()
}

var workloadNames = []string{"wire-small", "share-handoff"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "wire-small":
		return &wireSmall{cfg: wireDefault}, nil
	case "share-handoff":
		return &shareHandoff{cfg: shareDefault}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

const (
	setups       = 3                // set-up runs per process; set-up time is their median
	setupTimeout = 60 * time.Second // for the calls a set-up makes over the wire
	// A window is cut into equal slices of sliceSeconds, or into
	// maxSlices longer ones; each figure is the median of its per-slice
	// values, so a disturbance shorter than half the window moves none.
	sliceSeconds = 1
	// calibTolerance is how far the spin calibration may be off nominal:
	// a process whose calibration is further off at start refuses to
	// run, and a run whose calibration drifted further by its end is
	// flagged on standard error.
	calibTolerance = 0.10
	// exitCalib asks run.sh to retry in a fresh process, which
	// calibrates the spin loop anew.
	exitCalib = 75
)

// metrics is the ordered result set.
type metrics struct {
	names []string
	vals  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metrics) add(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.names = append(m.names, name)
	m.vals[name] = metric{v, unit}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "wire-small", "workload: wire-small or share-handoff")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 40, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	calib := spinCalibRatio()
	if math.Abs(calib-1) > calibTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: spin calibration off: %d Trap calls take %.2fx their nominal cost\n", 400, calib)
		os.Exit(exitCalib)
	}
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s spin_calib_ratio=%.3f\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), calib)

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, calib)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up several times and measures on the last
// set-ups: one untraced window, or in a traced run an untraced and a
// traced window on set-ups of their own.
func run(name string, seed int64, dur time.Duration, trace bool, calib float64) (*result, error) {
	var setupS []float64
	var plain, traced *phase
	if trace {
		// The untraced and the traced window split the time between
		// them, so that a traced run lasts as long as an untraced one.
		dur /= 2
	}
	for k := 0; k < setups; k++ {
		w, err := newWorkload(name)
		if err != nil {
			return nil, err
		}
		w.generate(seed)
		freeMemory()
		withTrace := trace && k == setups-1
		t0 := time.Now()
		err = w.setup(withTrace)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil {
			err = checkModelExact(w.instance(), w.accessors())
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		switch {
		case k == setups-1 && trace:
			traced = measure(w, dur, true)
		case k == setups-1 || (trace && k == setups-2):
			plain = measure(w, dur, false)
		}
		w.close()
	}

	res := &result{Correct: true}
	var m metrics
	for _, p := range []*phase{plain, traced} {
		if p == nil {
			continue
		}
		res.Attempted += p.sum.attempted
		res.Failed += p.sum.failed
		if p.problem != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, p.problem)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d calls failed\n", name, res.Failed, res.Attempted)
	}
	if res.Attempted == 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no calls\n", name)
		res.Attempted = 1
	}
	end := spinCalibRatio()
	worst := calib
	if math.Abs(end-1) > math.Abs(calib-1) {
		worst = end
	}
	fmt.Printf("spin calibration: start %.3f end %.3f\n", calib, end)
	if math.Abs(worst-1) > calibTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: warning: spin calibration ratio %.3f (start %.3f, end %.3f); modeled delays are off nominal\n", worst, calib, end)
	}
	if trace {
		layerMetrics(traceInputs{
			plain: plain.sum, traced: traced.sum, tel: traced.tel, ctl: traced.ctl,
			spans: traced.spans, ex: traced.ex, mem: plain.mem, calib: worst,
		}, &m)
	} else {
		endToEnd(setupS, plain, &m)
		fmt.Printf("whole window: ops_per_s %.1f p99_us %.1f\n", plain.sum.winOpsPerS, plain.sum.winP99)
	}
	res.Metrics = m.vals
	for _, n := range m.names {
		fmt.Printf("%-28s %14.4f %s\n", n, m.vals[n].Value, m.vals[n].Unit)
	}
	return res, nil
}

// endToEnd lists the end-to-end metrics of an untraced run.
func endToEnd(setupS []float64, p *phase, m *metrics) {
	s := p.sum
	m.add("setup_s", median(setupS), "s")
	m.add("ops_per_s", s.opsPerS, "1/s")
	m.add("mb_per_s", s.mbPerS, "MB/s")
	m.add("p50_us", s.p50, "us")
	m.add("p90_us", s.p90, "us")
	m.add("p99_us", s.p99, "us")
	m.add("read_p50_us", s.readP50, "us")
	m.add("read_p90_us", s.readP90, "us")
	m.add("write_p50_us", s.writeP50, "us")
	m.add("write_p90_us", s.writeP90, "us")
	m.add("meta_p50_us", s.metaP50, "us")
	m.add("meta_p90_us", s.metaP90, "us")
	m.add("space_amp", p.spaceAmp, "ratio")
	m.add("aux_heap_mb", p.auxHeapMB, "MB")
}

// phase is what one measured window produced.
type phase struct {
	sum       summary
	problem   error // content mismatch or failed final check
	spaceAmp  float64
	auxHeapMB float64
	mem       runtime.MemStats
	tel       telemetry.Snap
	ctl       controller.Snapshot
	spans     map[string]spanStat
	ex        extras
}

// measure runs one window on a set-up workload and checks the result.
func measure(w workload, dur time.Duration, traced bool) *phase {
	inst := w.instance()
	if traced {
		telemetry.Default().Enable()
		telemetry.EnableTracing(1 << 18)
		defer telemetry.Default().Disable()
	}
	warm := dur / 8
	if warm > time.Second {
		warm = time.Second
	}
	win := newWindow(warm, dur, min(max(int(dur/(sliceSeconds*time.Second)), 1), maxSlices))
	var (
		tel0   telemetry.Snap
		ctl0   controller.Snapshot
		ex0    extras
		m0, m1 runtime.MemStats
	)
	recs := win.run(w.lanes(), w.do, func() {
		runtime.ReadMemStats(&m0)
		tel0 = telemetry.Default().Snapshot()
		ctl0 = inst.Ctl.Stats().Snapshot()
		ex0 = w.extras()
	})
	p := &phase{}
	if traced {
		p.tel = telemetry.Default().Snapshot().Sub(tel0)
		p.ctl = inst.Ctl.Stats().Snapshot().Sub(ctl0)
		p.ex = w.extras().sub(ex0)
		telemetry.DisableTracing()
		p.spans = spanSelfTimes(telemetry.TraceSnapshot(), win.start.UnixNano(), win.end.UnixNano())
	}
	runtime.ReadMemStats(&m1)
	p.mem = memDelta(&m0, &m1)
	p.sum = summarize(win, recs)
	p.problem = p.sum.mismatch
	logs := make([][]access, len(recs))
	for l, r := range recs {
		logs[l] = r.log
	}
	if err := w.audit(logs); err != nil && p.problem == nil {
		p.problem = err
	}
	recs, logs = nil, nil // the samples and logs are not part of the program's heap

	// Heap and space at the end of the window, before the final check
	// reads everything back. The heap still holds the benchmark's
	// pre-generated inputs, which are the same on every run. The second
	// GC drops what sync.Pools kept through the first: whether a pool
	// was full at the window's end is timing, and it moved the figure by
	// 3 MB from run to run.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	arena := int64(inst.Dev.NumPages()) * nvm.PageSize
	p.auxHeapMB = float64(int64(ms.HeapAlloc)-arena) / 1e6
	inUse := int64(inst.Dev.NumPages()) - int64(inst.Ctl.FreePagesCount())

	live, err := w.check()
	if err != nil && p.problem == nil {
		p.problem = err
	}
	p.spaceAmp = ratio(float64(inUse*nvm.PageSize), float64(live))
	return p
}

// freeMemory returns the previous set-up's device arena to the OS
// before the next one is built.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
