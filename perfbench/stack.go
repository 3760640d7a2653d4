package main

import (
	"fmt"
	"time"

	"trio/internal/fsfactory"
	"trio/internal/nvm"
)

// pinnedCost is the benchmark's own copy of the device cost model, so a
// change that retunes the program's default model cannot move the
// benchmark's numbers. The constants are those of nvm.DefaultCostModel
// when the benchmark was defined.
func pinnedCost() *nvm.CostModel {
	return &nvm.CostModel{
		ReadLatency:        300 * time.Nanosecond,
		WriteLatency:       100 * time.Nanosecond,
		ReadBandwidth:      6.0e9,
		WriteBandwidth:     2.0e9,
		Sweetspot:          12,
		CollapseExponent:   1.6,
		RemoteReadPenalty:  1.8,
		RemoteWritePenalty: 3.0,
		PersistLatency:     60 * time.Nanosecond,
		FenceLatency:       30 * time.Nanosecond,
		TrapCost:           600 * time.Nanosecond,
		VFSMetaCost:        1800 * time.Nanosecond,
		IPCCost:            2500 * time.Nanosecond,
	}
}

// mountArck builds a one-node device with the pinned cost model and
// mounts the default ArckFS stack on it, configured exactly as
// fsfactory and trio-serve configure it by default.
func mountArck(pages int) (*fsfactory.Instance, error) {
	dev, err := nvm.NewDevice(nvm.Config{Nodes: 1, PagesPerNode: pages, Cost: pinnedCost()})
	if err != nil {
		return nil, err
	}
	return fsfactory.NewOnDevice("arckfs", dev, fsfactory.Config{})
}

// Default stack geometry, from fsfactory's defaults.
const (
	stackCPUs     = 8
	poolWorkers   = 4 // delegation workers per node
	serverWorkers = 4 // serve.Options default workers per connection
)

// checkModelExact asserts the two conditions under which the modeled
// device time computed from counters is exact: one NUMA node (no remote
// penalty) and no more goroutines able to touch the device at once than
// the model's sweet spot (no collapse factor).
func checkModelExact(inst *fsfactory.Instance, accessors int) error {
	if n := inst.Dev.Nodes(); n != 1 {
		return fmt.Errorf("device has %d NUMA nodes; the modeled-time split needs 1", n)
	}
	if sweet := inst.Dev.Cost().Sweetspot; accessors > sweet {
		return fmt.Errorf("%d concurrent device accessors exceed the cost model's sweet spot %d", accessors, sweet)
	}
	return nil
}

// spinCalibRatio times calls to the pinned model's Trap against their
// nominal cost. The device's spin loop is calibrated once per process;
// a calibration taken on a busy host makes every modeled delay shorter
// or longer than nominal, which this ratio exposes. The fastest of
// several batches is used so that preemption during the check itself
// does not count.
func spinCalibRatio() float64 {
	const batch, rounds = 400, 7
	cm := pinnedCost()
	best := time.Duration(1 << 62)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			cm.Trap()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / float64(batch*cm.TrapCost)
}

// modeledNS is the device and crossing time the pinned model charged
// for the counted events, in ns. It is exact under checkModelExact.
func modeledNS(d counterDelta) float64 {
	cm := pinnedCost()
	ns := float64(d.reads)*float64(cm.ReadLatency) +
		float64(d.readBytes)/cm.ReadBandwidth*1e9 +
		float64(d.writes)*float64(cm.WriteLatency) +
		float64(d.writeBytes)/cm.WriteBandwidth*1e9 +
		float64(d.persists)*float64(cm.PersistLatency) +
		float64(d.fences)*float64(cm.FenceLatency) +
		float64(d.trapOps)*float64(cm.TrapCost) +
		float64(d.ipcOps)*float64(cm.IPCCost)
	return ns
}
