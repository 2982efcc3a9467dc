package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"

	"ropsim"
	"ropsim/internal/workload"
)

// opKind says what one benchmark operation does around its simulation.
type opKind int

const (
	opRun     opKind = iota // a plain synthetic run
	opCapture               // run with CaptureTraces, encode core 0's stream to a .ropt file, decode it back
	opReplay                // run "trace:<file>", the file the matching capture wrote
)

// op is one named configuration of a workload's matrix.
type op struct {
	name string
	kind opKind
	cfg  ropsim.Config
	// file is the .ropt file a capture writes and its replay reads.
	file string
	// baseline names the op a ROP op's IPC gain is measured against.
	baseline string
	// capture names, for a replay, the capture whose snapshot it must
	// reproduce.
	capture string
}

// Instruction budgets per core at scale 1. They are long enough for
// ROP to finish its 50-refresh training on single-core runs and
// prefetch; see README.md.
const (
	mc4Insts   = 1_000_000
	scInsts    = 4_000_000
	traceInsts = 8_000_000
)

// workloadNames lists the benchmark's workloads.
var workloadNames = []string{"mc4-intensive", "sc-sweep", "trace-roundtrip"}

// buildOps returns the workload's configuration matrix. Every config's
// Config.Seed derives from seed (see subSeed); trace files live under
// dir.
func buildOps(name string, seed int64, scale float64, dir string) ([]op, error) {
	budget := func(n int64) int64 {
		if b := int64(float64(n) * scale); b > 1 {
			return b
		}
		return 1
	}
	switch name {
	case "mc4-intensive":
		return mc4Ops(seed, budget(mc4Insts))
	case "sc-sweep":
		return scOps(seed, budget(scInsts)), nil
	case "trace-roundtrip":
		return traceOps(seed, budget(traceInsts), dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// subSeed derives one config group's Config.Seed from the invocation's
// seed. The seed changes how much work a config simulates, by up to a
// fifth of its DRAM commands; with one Config.Seed for every config,
// all of them would move together and the workload's throughput with
// them. Each group draws its own streams instead, so the seed's effect
// averages over the groups. Configs that are compared with each other
// share a group: a ROP config and its baseline, a replay and its
// capture.
func subSeed(seed int64, group string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, group)
	return int64(h.Sum64() >> 1)
}

// allModes is every -mode preset of cmd/ropsim.
var allModes = []ropsim.Mode{
	ropsim.ModeBaseline, ropsim.ModeNoRefresh, ropsim.ModeROP, ropsim.ModeElastic,
	ropsim.ModePausing, ropsim.ModeBankRefresh, ropsim.ModeROPBank,
	ropsim.ModeSubarrayRefresh, ropsim.ModeOutOfOrderBank, ropsim.ModeDARP, ropsim.ModeSARP,
}

// mc4Ops is the paper's 4-core regime: WL1 on 4 ranks with a 4 MiB LLC
// under every mode on DDR4-1600, plus Baseline-RP and ROP on DDR5-4800.
// Rank partitioning follows experiments.go: the paper's ROP and the
// Baseline-RP row use it; every other mode runs the interleaved
// mapping, as the policy lab runs them.
func mc4Ops(seed, insts int64) ([]op, error) {
	mix, err := workload.GetMix("WL1")
	if err != nil {
		return nil, err
	}
	cfg := func(std string, mode ropsim.Mode, rp bool, group string) ropsim.Config {
		c := ropsim.Default(mix.Members...)
		c.Standard = std
		c.Mode = mode
		c.RankPartition = rp
		c.Instructions = insts
		c.Seed = subSeed(seed, group)
		return c
	}
	var ops []op
	for _, std := range []struct{ tag, name string }{{"ddr4", "DDR4-1600"}, {"ddr5", "DDR5-4800"}} {
		rp := std.tag + "/baseline-rp"
		ops = append(ops,
			op{name: rp, cfg: cfg(std.name, ropsim.ModeBaseline, true, rp)},
			op{name: std.tag + "/rop", cfg: cfg(std.name, ropsim.ModeROP, true, rp), baseline: rp})
		if std.tag != "ddr4" {
			continue
		}
		for _, m := range allModes {
			if m == ropsim.ModeROP {
				continue
			}
			name := std.tag + "/" + m.String()
			ops = append(ops, op{name: name, cfg: cfg(std.name, m, false, name)})
		}
	}
	return ops, nil
}

// scOps runs all twelve paper benchmarks single-core (1 rank, 2 MiB
// LLC, DDR4-1600) under Baseline and ROP with the 64-line buffer.
func scOps(seed, insts int64) []op {
	var ops []op
	for _, b := range ropsim.Benchmarks() {
		for _, m := range []ropsim.Mode{ropsim.ModeBaseline, ropsim.ModeROP} {
			c := ropsim.Default(b)
			c.Mode = m
			c.SRAMLines = 64
			c.Instructions = insts
			c.Seed = subSeed(seed, b)
			o := op{name: "sc/" + b + "/" + m.String(), cfg: c}
			if m == ropsim.ModeROP {
				o.baseline = "sc/" + b + "/baseline"
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// traceOps captures one long ROP run per zoo profile to a .ropt file
// and replays that file through "trace:<path>" under the same budget.
func traceOps(seed, insts int64, dir string) []op {
	var ops []op
	for _, p := range ropsim.ZooBenchmarks() {
		file := filepath.Join(dir, p+".ropt")
		c := ropsim.Default(p)
		c.Mode = ropsim.ModeROP
		c.Instructions = insts
		c.Seed = subSeed(seed, p)
		ops = append(ops,
			op{name: "trace/" + p + "/capture", kind: opCapture, cfg: c, file: file},
			op{name: "trace/" + p + "/replay", kind: opReplay, cfg: c, file: file, capture: "trace/" + p + "/capture"})
	}
	return ops
}

// opNames returns the ops' names, sorted, so two results can be checked
// to come from the same matrix.
func opNames(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.name
	}
	sort.Strings(out)
	return out
}

// profiles returns the distinct generator profiles the workload runs.
func profiles(ops []op) []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range ops {
		if o.kind == opReplay {
			continue
		}
		for _, b := range o.cfg.Benches {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}
