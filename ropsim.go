// Package ropsim is a from-scratch Go reproduction of "ROP: Alleviating
// Refresh Overheads via Reviving the Memory System in Frozen Cycles"
// (Huang et al., ICPP 2016). It bundles a cycle-level DDR4 memory-system
// simulator, a memory controller with auto-refresh / idealized
// no-refresh / ROP refresh policies, the ROP refresh-oriented prefetcher
// (pattern profiler, rank-scoped prediction table, SRAM buffer), a
// trace-driven multi-core front end with a shared LLC, synthetic
// SPEC-CPU2006-like workload models, and an energy model — plus the
// experiment harness that regenerates every figure and table of the
// paper's evaluation.
//
// Quick start:
//
//	cfg := ropsim.Default("libquantum")
//	cfg.Mode = ropsim.ModeROP
//	res, err := ropsim.Run(cfg)
//
// See the examples/ directory for runnable programs and EXPERIMENTS.md
// for the paper-versus-measured record.
package ropsim

import (
	"context"

	"ropsim/internal/core"
	"ropsim/internal/dram"
	"ropsim/internal/memctrl"
	"ropsim/internal/sim"
	"ropsim/internal/workload"
)

// Config describes one simulation run. It is the simulator-level
// configuration re-exported for library users.
type Config = sim.Config

// Result is a simulation outcome.
type Result = sim.Result

// CoreResult is one core's outcome within a Result.
type CoreResult = sim.CoreResult

// Mode selects the refresh handling policy.
type Mode = memctrl.Mode

// Refresh handling modes.
const (
	// ModeBaseline is JEDEC auto-refresh (the paper's Baseline).
	ModeBaseline = memctrl.ModeBaseline
	// ModeNoRefresh is the idealized refresh-free memory.
	ModeNoRefresh = memctrl.ModeNoRefresh
	// ModeROP enables the paper's refresh-oriented prefetching.
	ModeROP = memctrl.ModeROP
	// ModeElastic is the Elastic Refresh related-work baseline
	// (postpone refreshes into idle gaps, up to eight outstanding).
	ModeElastic = memctrl.ModeElastic
	// ModePausing is the Refresh Pausing related-work baseline
	// (interruptible refreshes in tRFC/8 segments).
	ModePausing = memctrl.ModePausing
	// ModeBankRefresh refreshes one bank at a time (future work §VII).
	ModeBankRefresh = memctrl.ModeBankRefresh
	// ModeROPBank combines bank-level refresh with ROP prefetching.
	ModeROPBank = memctrl.ModeROPBank
	// ModeSubarrayRefresh refreshes one subarray at a time (§VII).
	ModeSubarrayRefresh = memctrl.ModeSubarrayRefresh
	// ModeOutOfOrderBank schedules per-bank refreshes out of order
	// within the JEDEC pull-in/postpone window (Chang et al. HPCA'14).
	ModeOutOfOrderBank = memctrl.ModeOutOfOrderBank
	// ModeDARP adds write-drain refresh piggybacking on top of the
	// out-of-order scheduler (Chang et al. HPCA'14 DARP).
	ModeDARP = memctrl.ModeDARP
	// ModeSARP refreshes one subarray of a bank while the rest of the
	// bank serves accesses (Chang et al. HPCA'14 SARP).
	ModeSARP = memctrl.ModeSARP
)

// ParseMode returns the refresh mode a -mode name selects; the error
// for an unknown name lists the valid ones.
func ParseMode(name string) (Mode, error) { return memctrl.ParseMode(name) }

// Modes lists every refresh mode in declaration order.
func Modes() []Mode { return memctrl.Modes() }

// GatePolicy selects how ROP decides to launch a prefetch.
type GatePolicy = core.GatePolicy

// Gate policies (ablations; the paper's design is GateProbabilistic).
const (
	GateProbabilistic = core.GateProbabilistic
	GateAlways        = core.GateAlways
	GateNever         = core.GateNever
)

// Predictor selects ROP's candidate generator.
type Predictor = core.Predictor

// Predictor kinds.
const (
	PredictorTable = core.PredictorTable
	PredictorVLDP  = core.PredictorVLDP
)

// RefreshMode selects the JEDEC fine-grained refresh mode.
type RefreshMode = dram.RefreshMode

// Fine-grained refresh modes.
const (
	Refresh1x = dram.Refresh1x
	Refresh2x = dram.Refresh2x
	Refresh4x = dram.Refresh4x
)

// Default returns the paper's configuration for the given benchmarks
// (single-core: 1 rank, 2 MB LLC; multiprogram: 4 ranks, 4 MB LLC).
func Default(benches ...string) Config { return sim.Default(benches...) }

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// RunCtx is Run with cancellation: the simulation aborts between
// events when ctx is cancelled (graceful campaign shutdown rides on
// this).
func RunCtx(ctx context.Context, cfg Config) (*Result, error) { return sim.RunCtx(ctx, cfg) }

// WeightedSpeedup computes Σ IPC_shared/IPC_alone (paper Eq. 4).
func WeightedSpeedup(shared *Result, alone []float64) float64 {
	return sim.WeightedSpeedup(shared, alone)
}

// Benchmarks lists the modeled SPEC CPU2006 benchmarks in the paper's
// Table I order.
func Benchmarks() []string { return workload.PaperOrder() }

// ZooBenchmarks lists the server-class workload-zoo benchmarks
// (pointer-chasing, scan-heavy, memcached-like). They resolve anywhere
// a benchmark name is accepted but stay out of the paper's
// twelve-benchmark tables; docs/TRACES.md has the catalog.
func ZooBenchmarks() []string { return workload.ZooNames() }

// DRAMStandards lists the registered DRAM standard names, sorted
// (Config.Standard accepts any of them; empty selects the paper's
// DDR4-1600 device).
func DRAMStandards() []string { return dram.StandardNames() }

// Mix is a multiprogrammed 4-core workload.
type Mix = workload.Mix

// Mixes returns the paper's six workload combinations WL1-WL6.
func Mixes() []Mix { return workload.Mixes() }
