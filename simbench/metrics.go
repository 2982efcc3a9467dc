package main

import (
	"math"
	"strings"

	"ropsim/internal/stats"
)

// field returns a snapshot field, 0 when the path is absent.
func field(s stats.Snapshot, path, name string) float64 {
	v, _ := s.Field(path, name)
	return v
}

// dramCmds counts the DRAM commands in a run's snapshot.
func dramCmds(snap stats.Snapshot) float64 {
	var n float64
	for _, c := range []string{"num_act", "num_pre", "num_rd", "num_wr", "num_ref"} {
		n += field(snap, "dram."+c, "value")
	}
	return n
}

// paperGain is the paper's ROP IPC gain for each workload, printed
// beside the measured one.
var paperGain = map[string]string{
	"mc4-intensive":   "paper Fig. 10: ROP vs Baseline-RP up to +18.8%, geomean +6.5%",
	"sc-sweep":        "paper Fig. 7: single-core ROP gain up to 9.2%",
	"trace-roundtrip": "no Baseline config in this workload",
}

// simMetrics reports the simulated counts, summed over the workload's
// configs from the checked pass's snapshots (they are deterministic),
// and the host rates that divide by them, as medians over the untraced
// passes in calibrated host time.
func (b *bencher) simMetrics(timed []pass) {
	sum := func(path, name string) float64 {
		var v float64
		for _, op := range b.ops {
			v += field(b.ref[op.name].snap, path, name)
		}
		return v
	}
	var bus, cmds float64
	for _, op := range b.ops {
		bus += float64(b.ref[op.name].bus)
		cmds += b.ref[op.name].cmds
	}
	b.add("sim.bus_cycles", bus, "count")
	b.add("sim.bus_cycles_per_s", medianOver(timed, func(p pass) float64 {
		_, bus, _, _ := p.totals()
		return float64(bus) / p.host().Seconds()
	}), "1/s")
	b.add("sim.host_ns_per_dram_cmd", medianOver(timed, func(p pass) float64 {
		_, _, cmds, _ := p.totals()
		return float64(p.host().Nanoseconds()) / cmds
	}), "ns")

	act, rd, wr := sum("dram.num_act", "value"), sum("dram.num_rd", "value"), sum("dram.num_wr", "value")
	b.add("dram.cmds", cmds, "count")
	b.add("dram.row_hit_ratio", 1-act/(rd+wr), "ratio")
	b.add("dram.ref_locked_cycles", sum("dram.ref_locked_cycles", "value"), "cycles")

	b.add("memctrl.reads_served", sum("memctrl.reads_served", "value"), "count")
	b.add("memctrl.mean_read_latency_cycles", sum("memctrl.read_latency", "sum")/sum("memctrl.read_latency", "count"), "cycles")
	b.add("memctrl.queue_full_events", sum("memctrl.queue_full_events", "value"), "count")
	b.add("memctrl.refresh_postponed_cycles", sum("memctrl.refresh_postponed_cycles", "sum"), "cycles")

	hits, misses := sum("llc.hits", "value"), sum("llc.misses", "value")
	b.add("llc.miss_rate", misses/(hits+misses), "ratio")

	fills := sum("memctrl.prefetch_fills_issued", "value")
	b.add("core.fills_issued", fills, "count")
	b.add("core.fills_dropped", sum("memctrl.fills_dropped", "value"), "count")
	b.add("core.sram_hit_rate", sum("memctrl.rop.sram.hits", "value")/sum("memctrl.rop.sram.lookups", "value"), "ratio")
	b.add("core.prefetch_useful_ratio", sum("memctrl.sram_served", "value")/fills, "ratio")

	// The gain is the geometric mean, over every ROP config with a
	// baseline in the matrix, of its summed-core IPC over the
	// baseline's.
	var logSum float64
	var pairs int
	for _, op := range b.ops {
		if op.baseline == "" {
			continue
		}
		r, base := b.ref[op.name].ipc, b.ref[op.baseline].ipc
		if r > 0 && base > 0 {
			logSum += math.Log(r / base)
			pairs++
		}
	}
	gain := 0.0
	if pairs > 0 {
		gain = (math.Exp(logSum/float64(pairs)) - 1) * 100
	}
	b.rep.metrics = append(b.rep.metrics, metric{name: "core.rop_ipc_gain_pct", value: gain, unit: "%",
		note: paperGain[b.opts.workload] + "; model unvalidated against hardware"})

	var replayed float64
	for _, op := range b.ops {
		for _, v := range b.ref[op.name].snap.Metrics {
			if strings.HasPrefix(v.Path, "trace.core") && strings.HasSuffix(v.Path, ".records_replayed") {
				replayed += field(b.ref[op.name].snap, v.Path, "value")
			}
		}
	}
	b.add("trace.records_replayed", replayed, "count")
}
