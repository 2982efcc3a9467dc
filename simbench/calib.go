package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// refNominal is the CPU time one reference run is taken to last. A
// calibrated second is the host time in which the reference does
// 1 s / refNominal of its runs, so on a host where a reference run
// takes refNominal, calibrated and measured seconds agree.
const refNominal = 25 * time.Millisecond

// refKeys is the key space of the reference's maps. Filled with
// refInserts random keys, a map of uint64 to uint64 spans a few MiB,
// about the simulator's own working set, so it contends for the host's
// last-level cache and memory bandwidth as the simulator does.
const refKeys = 1 << 18

// refInserts is how many inserts go into each of a run's refMaps maps.
const (
	refInserts = 100_000
	refMaps    = 2
)

// reference is the calibration workload. On a shared host, other
// tenants' use of the last-level cache and memory bandwidth moves the
// simulator's speed by up to a factor of two, over seconds to
// minutes. The reference is hash-map work of the same footprint. It
// runs right before and right after every timed run, and the run's CPU
// time is scaled by refNominal over the two references' mean CPU time,
// so contention that slows both cancels. The reference is part of the
// benchmark, not of the simulator, so no change to the simulator
// changes it. Its maps are collected before it returns, so the
// simulator runs on the same heap as without it.
type reference struct {
	seed uint64
}

// run does one reference run and returns its CPU time. The collector
// is off while it runs, so the reference's time does not depend on the
// size of the benchmark's or the simulator's live heap. Its maps are
// collected before the collector is turned back on, in a forced
// collection, which host.gc_cycles does not count.
func (r *reference) run() time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	start := cpuTime()
	for m := 0; m < refMaps; m++ {
		fresh := map[uint64]uint64{}
		x := r.seed | 1
		for i := 0; i < refInserts; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			fresh[x&(refKeys-1)] += x
		}
		r.seed = x + uint64(len(fresh))
	}
	return cpuTime() - start
}

// calibrated converts a CPU time measured between reference runs that
// took ref on average into calibrated time (ref 0: no reference time
// could be read, and the time stays as measured).
func calibrated(cpu, ref time.Duration) time.Duration {
	if ref <= 0 {
		return cpu
	}
	return time.Duration(float64(cpu) * float64(refNominal) / float64(ref))
}
