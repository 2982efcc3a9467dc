// Command ropsim runs one memory-system simulation and prints its
// metrics: per-core IPC, elapsed time, refresh counts, SRAM buffer
// statistics and the energy breakdown. -stats-out additionally writes
// the run's full metric-registry snapshot as a machine-readable
// artifact (docs/METRICS.md documents the schema).
//
// Examples:
//
//	ropsim -bench libquantum -mode rop
//	ropsim -mix WL1 -mode baseline -insts 500000
//	ropsim -bench lbm,bzip2,gcc,astar -mode rop -partition -llc 4
//	ropsim -bench libquantum -mode rop -stats-out run.stats.json
//	ropsim -bench lbm -insts 8000000 -cpuprofile cpu.pprof
//	ropsim -bench libquantum -mode rop -check -run-timeout 5m
//	ropsim -bench trace:testdata/traces/pointer.ropt -mode rop
//	ropsim -bench scan -capture-trace out -insts 600000
//
// A benchmark name of the form "trace:<path>" replays the trace file
// at <path> (text or .ropt, sniffed by content) instead of a synthetic
// generator; -capture-trace records each core's request stream to
// <prefix>.core<N>.ropt for later byte-exact replay (docs/TRACES.md).
//
// -check validates every DRAM command the controller issues against
// the JEDEC timing checker; -run-timeout arms the in-run watchdog.
// SIGINT/SIGTERM cancels the run and exits with code 3 (a second
// signal aborts immediately); see docs/ROBUSTNESS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"ropsim"
	"ropsim/internal/cache"
	"ropsim/internal/trace"
)

func main() {
	var (
		bench      = flag.String("bench", "libquantum", "benchmark name, or comma-separated list for multi-core")
		mix        = flag.String("mix", "", "workload mix name (WL1-WL6); overrides -bench")
		mode       = flag.String("mode", "baseline", "refresh mode: "+modeNames(" | "))
		standard   = flag.String("standard", "", "DRAM standard (see -list; default DDR4-1600)")
		density    = flag.Int("density", 0, "projected die density in Gbit for tRFC scaling (0 = datasheet 8 Gb)")
		insts      = flag.Int64("insts", 2_000_000, "instructions per core")
		sram       = flag.Int("sram", 64, "ROP SRAM buffer capacity in cache lines")
		llcMiB     = flag.Int("llc", 0, "LLC size in MiB (0 = paper default for core count)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		partition  = flag.Bool("partition", false, "rank-aware (partitioned) address mapping")
		train      = flag.Int("train", 0, "ROP training refreshes (0 = paper's 50)")
		listFlag   = flag.Bool("list", false, "list benchmarks and mixes, then exit")
		checkF     = flag.Bool("check", false, "validate every DRAM command against the JEDEC timing checker")
		runTimeout = flag.Duration("run-timeout", 0, "wall-clock watchdog deadline for the run (0 = none)")
		statsOut   = flag.String("stats-out", "", "write the run's metric snapshot to this file (.csv selects CSV, else JSON; see docs/METRICS.md)")
		capTrace   = flag.String("capture-trace", "", "record each core's request stream to <prefix>.core<N>.ropt for byte-exact replay (see docs/TRACES.md)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *listFlag {
		fmt.Println("benchmarks:", strings.Join(ropsim.Benchmarks(), " "))
		fmt.Println("zoo:", strings.Join(ropsim.ZooBenchmarks(), " "))
		for _, m := range ropsim.Mixes() {
			fmt.Printf("%s: %s\n", m.Name, strings.Join(m.Members, " "))
		}
		fmt.Println("standards:", strings.Join(ropsim.DRAMStandards(), " "))
		return
	}

	benches := strings.Split(*bench, ",")
	if *mix != "" {
		found := false
		for _, m := range ropsim.Mixes() {
			if m.Name == *mix {
				benches = m.Members
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown mix %q\n", *mix)
			os.Exit(2)
		}
	}

	cfg := ropsim.Default(benches...)
	m, err := ropsim.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Mode = m
	cfg.Instructions = *insts
	cfg.SRAMLines = *sram
	cfg.Seed = *seed
	cfg.RankPartition = *partition
	cfg.ROPTrainRefreshes = *train
	cfg.Check = *checkF
	cfg.RunTimeout = *runTimeout
	cfg.Standard = *standard
	cfg.DensityGb = *density
	cfg.CaptureTraces = *capTrace != ""
	if *llcMiB > 0 {
		cfg.LLCBytes = *llcMiB * cache.MiB
	}

	// First SIGINT/SIGTERM cancels the run between events (exit code
	// 3); a second signal aborts the process immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "ropsim: %v: cancelling run (signal again to abort immediately)\n", s)
		cancel()
		<-sigCh
		os.Exit(130)
	}()

	res, err := ropsim.RunCtx(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, context.Canceled) {
			os.Exit(3)
		}
		os.Exit(1)
	}

	fmt.Printf("mode=%s ranks=%d llc=%dMiB insts=%d seed=%d\n",
		cfg.Mode, cfg.Ranks, cfg.LLCBytes/cache.MiB, cfg.Instructions, cfg.Seed)
	if cfg.Standard != "" {
		fmt.Printf("standard=%s\n", cfg.Standard)
	}
	if cfg.DensityGb != 0 {
		fmt.Printf("density=%dGb\n", cfg.DensityGb)
	}
	for i, c := range res.Cores {
		fmt.Printf("core %d %-11s IPC=%.4f memReads=%d memWrites=%d llcHitReads=%d\n",
			i, c.Bench, c.IPC, c.MemReads, c.MemWrites, c.LLCHitReads)
	}
	fmt.Printf("elapsed=%d bus cycles (%.3f ms simulated)\n",
		res.ElapsedBus, float64(res.ElapsedBus)*1.25e-6)
	fmt.Printf("refreshes=%d meanReadLatency=%.1f cycles llcMissRate=%.3f\n",
		res.Refreshes, res.MeanReadLatency, res.LLCMissRate)
	if cfg.Mode.Prefetches() {
		fmt.Printf("sram: served=%d lookups=%d hits=%d hitRate=%.3f\n",
			res.SRAMServed, res.SRAMLookups, res.SRAMHits, res.SRAMHitRate)
	}
	e := res.Energy
	fmt.Printf("energy: total=%.4g J (background=%.3g actpre=%.3g read=%.3g write=%.3g refresh=%.3g sram=%.3g)\n",
		e.Total(), e.BackgroundJ, e.ActPreJ, e.ReadJ, e.WriteJ, e.RefreshJ, e.SRAMJ)

	if *capTrace != "" {
		for i, recs := range res.CoreTraces {
			name := fmt.Sprintf("%s.core%d.ropt", *capTrace, i)
			f, err := os.Create(name)
			if err != nil {
				fail(err)
			}
			if err := trace.EncodeRopt(f, recs); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "trace: %d records -> %s\n", len(recs), name)
		}
	}
	if *statsOut != "" {
		art := ropsim.NewArtifact()
		art.Record(fmt.Sprintf("%s/%s", cfg.Mode, strings.Join(benches, "+")), res.Metrics)
		if err := art.WriteFile(*statsOut); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "stats: snapshot -> %s\n", *statsOut)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}

// modeNames joins every -mode name with sep.
func modeNames(sep string) string {
	var names []string
	for _, m := range ropsim.Modes() {
		names = append(names, m.String())
	}
	return strings.Join(names, sep)
}
