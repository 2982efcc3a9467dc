// Multiprogram: run one of the paper's 4-core workload mixes under the
// three systems of Figure 10 — Baseline (rank-interleaved), Baseline-RP
// (rank-partitioned), and ROP (rank partitioning + refresh-oriented
// prefetching) — and report weighted speedups and energy.
package main

import (
	"fmt"
	"os"

	"ropsim"
)

func main() {
	mixName := "WL1"
	if len(os.Args) > 1 {
		mixName = os.Args[1]
	}
	var mix ropsim.Mix
	found := false
	for _, m := range ropsim.Mixes() {
		if m.Name == mixName {
			mix, found = m, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown mix %q (use WL1..WL6)\n", mixName)
		os.Exit(2)
	}
	fmt.Printf("%s = %v\n\n", mix.Name, mix.Members)

	const insts = 2_000_000

	// Per-benchmark alone IPCs (denominator of Eq. 4), on the same
	// 4-rank platform.
	alone := make([]float64, len(mix.Members))
	for i, b := range mix.Members {
		cfg := ropsim.Default(b)
		cfg.Ranks = 4
		cfg.LLCBytes = ropsim.Default("a", "b", "c", "d").LLCBytes
		cfg.Instructions = insts
		res, err := ropsim.Run(cfg)
		if err != nil {
			panic(err)
		}
		alone[i] = res.Cores[0].IPC
	}

	type system struct {
		name      string
		mode      ropsim.Mode
		partition bool
	}
	systems := []system{
		{"Baseline", ropsim.ModeBaseline, false},
		{"Baseline-RP", ropsim.ModeBaseline, true},
		{"ROP", ropsim.ModeROP, true},
	}
	var wsBase, enBase float64
	for _, s := range systems {
		cfg := ropsim.Default(mix.Members...)
		cfg.Mode = s.mode
		cfg.RankPartition = s.partition
		cfg.Instructions = insts
		res, err := ropsim.Run(cfg)
		if err != nil {
			panic(err)
		}
		ws := ropsim.WeightedSpeedup(res, alone)
		if s.name == "Baseline" {
			wsBase, enBase = ws, res.TotalEnergy()
		}
		fmt.Printf("%-12s weighted speedup %.3f (norm %.3f)  energy %.4g J (norm %.3f)\n",
			s.name, ws, ws/wsBase, res.TotalEnergy(), res.TotalEnergy()/enBase)
		if s.mode.Prefetches() {
			fmt.Printf("%-12s SRAM: served=%d hitRate=%.2f\n", "", res.SRAMServed, res.SRAMHitRate)
		}
	}
}
