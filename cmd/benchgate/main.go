// Command benchgate records the simulator's performance baseline and
// gates regressions against a committed reference. It measures the
// hot-path microbenchmarks (event queue, controller service paths, the
// idle refresh sleep), the quick Fig1 campaign wall-clock at one
// worker, the simulated-cycles-per-second headline, and the
// trace-replay throughput over a committed zoo trace, then writes
// them as a BENCH_<date>.json artifact (docs/PERFORMANCE.md documents
// the schema).
//
//	benchgate                          # write BENCH_<today>.json
//	benchgate -out BENCH_ci.json -ref BENCH_2026-08-06.json
//
// With -ref, every measurement the reference flags with "gate": true
// is compared: the run fails (exit 1) when a time-based metric
// regresses by more than -tolerance (default 15%), or a
// higher-is-better metric drops by more than the same fraction. The
// campaign wall-clock and trace-replay throughput are gated by
// default; microbenchmarks are recorded for trend reading but are too
// noisy to fail a build on.
// Absolute numbers vary across machines; the gate is meant for
// same-machine comparisons (CI runners of one class, or a developer's
// before/after).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"ropsim"
	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
	"ropsim/internal/memctrl"
)

// benchSchema versions the artifact layout.
const benchSchema = 1

// Measurement is one recorded metric of a baseline artifact.
type Measurement struct {
	Name string `json:"name"`
	// Unit is "ns/op" for microbenchmarks, "ns" for campaign
	// wall-clock, "cycle/s" for simulation throughput.
	Unit           string  `json:"unit"`
	Value          float64 `json:"value"`
	AllocsPerOp    int64   `json:"allocs_per_op,omitempty"`
	HigherIsBetter bool    `json:"higher_is_better,omitempty"`
	// Gate marks the metric as regression-gated: -ref compares only
	// measurements flagged in the reference artifact. Campaign
	// wall-clock and trace-replay throughput are gated;
	// microbenchmarks and the simulation-throughput headline are
	// recorded for trend reading but too noisy to fail a build on.
	Gate bool   `json:"gate,omitempty"`
	Note string `json:"note,omitempty"`
}

// Baseline is the BENCH_<date>.json document.
type Baseline struct {
	Schema    int           `json:"schema"`
	Generated string        `json:"generated"`
	GoVersion string        `json:"go"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	Results   []Measurement `json:"results"`
}

func main() {
	out := flag.String("out", "", "output path (default BENCH_<today>.json)")
	ref := flag.String("ref", "", "reference BENCH_*.json to gate against")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression vs -ref")
	runs := flag.Int("runs", 3, "campaign repetitions (best run is recorded)")
	flag.Parse()
	if *out == "" {
		*out = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
	}

	b := Baseline{
		Schema:    benchSchema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	b.Results = append(b.Results, microBenchmarks()...)
	b.Results = append(b.Results, campaign(*runs)...)
	b.Results = append(b.Results, traceReplay(*runs))

	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	for _, m := range b.Results {
		fmt.Printf("%-40s %14.1f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Printf("baseline -> %s\n", *out)

	if *ref != "" {
		if err := gate(b, *ref, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Printf("gate: within %.0f%% of %s\n", *tolerance*100, *ref)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}

// micro converts one testing.Benchmark result into a Measurement.
func micro(name string, f func(b *testing.B)) Measurement {
	r := testing.Benchmark(f)
	return Measurement{
		Name:        name,
		Unit:        "ns/op",
		Value:       float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// microBenchmarks mirrors the hot-path benchmarks of internal/event
// and internal/memctrl (kept in their bench_test.go files for `go test
// -bench`); benchgate re-measures them so the committed artifact is
// reproducible with one command.
func microBenchmarks() []Measurement {
	var ms []Measurement
	ms = append(ms, micro("event_schedule_step_near", func(b *testing.B) {
		var q event.Queue
		var fn func(now event.Cycle)
		fn = func(now event.Cycle) { q.Schedule(now+37, fn) }
		for i := 0; i < 64; i++ {
			q.Schedule(event.Cycle(i), fn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Step()
		}
	}))
	ms = append(ms, micro("event_chained_sleep", func(b *testing.B) {
		var q event.Queue
		var fn func(now event.Cycle)
		fn = func(now event.Cycle) { q.ScheduleChained(now+97, fn) }
		q.ScheduleChained(97, fn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Step()
		}
	}))
	ms = append(ms, micro("memctrl_read_row_hit", func(b *testing.B) {
		c, q := benchController(memctrl.ModeNoRefresh)
		readOnce(b, c, q, 5, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readOnce(b, c, q, 5, i%64)
		}
	}))
	ms = append(ms, micro("memctrl_idle_refresh_cadence", func(b *testing.B) {
		c, q := benchController(memctrl.ModeBaseline)
		refi := c.Device().Params().REFI
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.RunUntil(q.Now() + refi)
		}
	}))
	return ms
}

func benchController(mode memctrl.Mode) (*memctrl.Controller, *event.Queue) {
	params := dram.DDR4_1600(dram.Refresh1x)
	if !mode.Refreshes() {
		params = dram.NoRefresh(params)
	}
	q := &event.Queue{}
	dev := dram.NewDevice(params, addr.Geometry{
		Channels: 1, Ranks: 2, Banks: 8, Rows: 512, ColumnLines: 64,
	})
	return memctrl.MustNew(memctrl.DefaultConfig(mode), dev, q), q
}

func readOnce(b *testing.B, c *memctrl.Controller, q *event.Queue, row, col int) {
	done := false
	if !c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: row, Col: col}, 0,
		func(event.Cycle) { done = true }) {
		b.Fatal("enqueue rejected")
	}
	for !done {
		if !q.Step() {
			b.Fatal("queue drained before read completed")
		}
	}
}

// campaign measures the quick Fig1 campaign at one worker (the ISSUE's
// ≥2x acceptance target) and the single-run simulation throughput.
func campaign(runs int) []Measurement {
	o := ropsim.QuickOptions()
	o.Jobs = 1
	best := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := ropsim.Fig1(o); err != nil {
			fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}

	cfg := ropsim.Default("libquantum")
	cfg.Mode = ropsim.ModeBaseline
	cfg.Instructions = 300_000
	start := time.Now()
	res, err := ropsim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	cps := float64(res.ElapsedBus) / wall.Seconds()

	return []Measurement{
		{
			Name:  "fig1_quick_jobs1_wall",
			Unit:  "ns",
			Value: float64(best.Nanoseconds()),
			Gate:  true,
			Note:  fmt.Sprintf("best of %d", runs),
		},
		{
			Name:           "sim_bus_cycles_per_sec",
			Unit:           "cycle/s",
			Value:          cps,
			HigherIsBetter: true,
			Note:           "libquantum baseline, 300k instructions",
		},
	}
}

// traceReplayPath is the committed workload-zoo trace the replay gate
// times. benchgate runs from the repo root (the Makefile's bench and
// bench-gate targets), so the path is repo-relative.
const traceReplayPath = "testdata/traces/scan.ropt"

// traceReplay measures trace-replay throughput: a full simulator run
// driven by a committed zoo trace, reported as replayed requests per
// wall-clock second. The measurement is gated (docs/TRACES.md) so
// replay-path regressions cannot land silently.
func traceReplay(runs int) Measurement {
	cfg := ropsim.Default("trace:" + traceReplayPath)
	cfg.Mode = ropsim.ModeBaseline
	best := time.Duration(1<<63 - 1)
	var replayed float64
	for i := 0; i < runs; i++ {
		start := time.Now()
		res, err := ropsim.Run(cfg)
		if err != nil {
			fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		replayed, _ = res.Metrics.Field("trace.core0.records_replayed", "value")
	}
	return Measurement{
		Name:           "trace_replay_reqs_per_sec",
		Unit:           "req/s",
		Value:          replayed / best.Seconds(),
		HigherIsBetter: true,
		Gate:           true,
		Note:           fmt.Sprintf("%s, best of %d", traceReplayPath, runs),
	}
}

// gate compares b against the reference artifact and returns an error
// describing every metric outside tolerance.
func gate(b Baseline, refPath string, tolerance float64) error {
	data, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	var ref Baseline
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("parse %s: %w", refPath, err)
	}
	cur := make(map[string]Measurement, len(b.Results))
	for _, m := range b.Results {
		cur[m.Name] = m
	}
	var failures []string
	for _, want := range ref.Results {
		got, ok := cur[want.Name]
		if !ok || !want.Gate || want.Value <= 0 {
			continue
		}
		ratio := got.Value / want.Value
		if want.HigherIsBetter {
			if ratio < 1-tolerance {
				failures = append(failures, fmt.Sprintf(
					"%s dropped to %.0f%% of reference (%.1f vs %.1f %s)",
					want.Name, ratio*100, got.Value, want.Value, want.Unit))
			}
		} else if ratio > 1+tolerance {
			failures = append(failures, fmt.Sprintf(
				"%s regressed to %.0f%% of reference (%.1f vs %.1f %s)",
				want.Name, ratio*100, got.Value, want.Value, want.Unit))
		}
	}
	if len(failures) > 0 {
		msg := failures[0]
		for _, f := range failures[1:] {
			msg += "; " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
