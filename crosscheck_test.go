package ropsim

import (
	"testing"

	"ropsim/internal/memctrl"
)

// TestCrossCheckWake drives full simulations in every refresh mode with
// memctrl.CrossCheckWake enabled: the controller ticks at the original
// per-cycle polling cadence and panics if the exact wake computation
// (memctrl's nextWake) would have slept past any cycle where a tick
// issued a command or advanced controller state. This pins the wake
// discipline's exactness independently of the golden-table tests: those
// catch a divergence, this localizes it to the first missed cycle.
func TestCrossCheckWake(t *testing.T) {
	memctrl.CrossCheckWake = true
	defer func() { memctrl.CrossCheckWake = false }()
	o := QuickOptions()
	o.Jobs = 1
	modes := []Mode{
		ModeBaseline, ModeNoRefresh, ModeROP, ModeElastic, ModePausing,
		ModeBankRefresh, ModeROPBank, ModeSubarrayRefresh,
	}
	benches := []string{"libquantum", "lbm"}
	if testing.Short() {
		benches = benches[:1]
	}
	for _, b := range benches {
		for _, mode := range modes {
			for _, closed := range []bool{false, true} {
				cfg := o.single(b, mode)
				cfg.ClosedPage = closed
				if _, err := Run(cfg); err != nil {
					t.Fatalf("%s/%v/closed=%v: %v", b, mode, closed, err)
				}
			}
		}
	}
	// A valid 32-rank channel: more ranks than a fixed-size per-rank
	// snapshot would hold.
	for _, mode := range Modes() {
		cfg := o.single("libquantum", mode)
		cfg.Ranks = 32
		cfg.Instructions = 120_000
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%v/ranks=32: %v", mode, err)
		}
	}
}
