// Quickstart: run the same benchmark under the three memory systems the
// paper compares — auto-refresh baseline, ROP, and the idealized
// no-refresh memory — and print how much of the refresh overhead ROP
// recovers.
package main

import (
	"fmt"

	"ropsim"
)

func main() {
	const bench = "libquantum"
	fmt.Printf("Running %s under three memory systems...\n\n", bench)

	ipc := map[ropsim.Mode]float64{}
	var hitRate float64
	for _, mode := range []ropsim.Mode{ropsim.ModeBaseline, ropsim.ModeROP, ropsim.ModeNoRefresh} {
		cfg := ropsim.Default(bench)
		cfg.Mode = mode
		cfg.Instructions = 3_000_000
		res, err := ropsim.Run(cfg)
		if err != nil {
			panic(err)
		}
		ipc[mode] = res.Cores[0].IPC
		fmt.Printf("%-10v IPC=%.4f refreshes=%d energy=%.4g J\n",
			mode, res.Cores[0].IPC, res.Refreshes, res.TotalEnergy())
		if mode.Prefetches() {
			hitRate = res.SRAMHitRate
			fmt.Printf("           SRAM buffer: %d reads served, hit rate %.2f\n",
				res.SRAMServed, res.SRAMHitRate)
		}
	}

	gap := ipc[ropsim.ModeNoRefresh] - ipc[ropsim.ModeBaseline]
	got := ipc[ropsim.ModeROP] - ipc[ropsim.ModeBaseline]
	fmt.Printf("\nRefresh overhead (baseline vs ideal): %.2f%% of IPC\n",
		gap/ipc[ropsim.ModeNoRefresh]*100)
	if gap > 0 {
		fmt.Printf("ROP recovered %.0f%% of that gap (buffer hit rate %.2f)\n",
			got/gap*100, hitRate)
	}
}
