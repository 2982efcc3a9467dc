// Command simbench is the simulator's benchmark. One invocation runs
// one workload (a fixed matrix of simulator configurations) in a fresh
// process, one simulation at a time, and prints its metrics by name
// and unit; the last stdout line is a JSON summary. With -trace 0 it
// reports the end-to-end metrics of untraced runs; with -trace 1 it
// adds a traced pass (CPU profile, spans, allocation counters) and
// reports the per-layer metrics. README.md documents the workloads and
// metrics.
//
//	bash simbench/run.sh --workload mc4-intensive --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed passes; the traced passes run a quarter as long
	trace    bool
	scale    float64 // multiplies every instruction budget: 1 from the command line, smaller in tests
	outDir   string  // where trace files, spans and the result file go
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, not part of the result
	// row marks a report-only row: printed and kept in the result
	// file, but not part of the summary line's metrics.
	row bool
}

// report is the outcome of one invocation.
type report struct {
	opts    options
	host    map[string]any
	configs []string
	// configSeeds is each config's Config.Seed, derived from the seed.
	configSeeds map[string]int64
	digests     map[string]string // from the checked pass
	// tracedDigests holds the last traced pass's digests (traced runs
	// only).
	tracedDigests map[string]string
	attempted     int
	failed        int
	failures      []string
	metrics       []metric
	// samples holds the raw per-pass or per-repetition values behind
	// the medians, by metric name.
	samples map[string][]float64
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func main() {
	// One simulation runs at a time on one goroutine. With a single P
	// the garbage collector works on that P too, so the process's CPU
	// time is the simulator's own work, with no idle-time mark workers
	// on the second CPU, and the other CPU is left to the host.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the benchmark at full scale.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every config's workload generators")
	fs.Float64Var(&o.seconds, "seconds", 30, "seconds the timed passes run")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: add a traced pass and report per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "simbench"), "directory for trace files, spans and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "simbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 0 {
		fmt.Fprintln(stderr, "simbench: -seconds must be non-negative")
		return 2
	}
	return runBenchmark(o, stdout, stderr)
}

// runBenchmark runs the benchmark and prints its report. It returns 0
// only when every run succeeded and every output check passed.
func runBenchmark(o options, stdout, stderr io.Writer) int {
	rep, err := benchmark(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// hostFacts records what a result depends on besides the code.
func hostFacts(o options) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       o.seed,
		"workload":   o.workload,
	}
}

// finite maps NaN and infinities to 0 so the summary stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// writeReport prints the human-readable report, writes the full result
// file, and ends stdout with the one-line JSON summary.
func writeReport(w io.Writer, rep *report) error {
	o := rep.opts
	fmt.Fprintf(w, "simbench workload=%s seed=%d seconds=%g trace=%v\n",
		o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host nproc=%v gomaxprocs=%v go=%v goos=%v goarch=%v\n",
		rep.host["nproc"], rep.host["gomaxprocs"], rep.host["go"], rep.host["goos"], rep.host["goarch"])
	fmt.Fprintf(w, "configs %s\n", strings.Join(rep.configs, " "))
	for _, c := range rep.configs {
		fmt.Fprintf(w, "digest %s %s\n", c, rep.digests[c])
	}
	metrics := map[string]any{}
	for _, m := range rep.metrics {
		line := fmt.Sprintf("metric %s %v %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
		if !m.row {
			metrics[m.name] = map[string]any{"value": finite(m.value), "unit": m.unit}
		}
	}
	summary := map[string]any{
		"correct":   rep.correct(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	}
	full := map[string]any{
		"summary":        summary,
		"host":           rep.host,
		"configs":        rep.configs,
		"config_seeds":   rep.configSeeds,
		"digests":        rep.digests,
		"traced_digests": rep.tracedDigests,
		"failures":       rep.failures,
		"rows":           reportRows(rep.metrics),
		"samples":        rep.samples,
	}
	data, err := json.MarshalIndent(full, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	resultFile := filepath.Join(o.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, b2i(o.trace)))
	if err := os.WriteFile(resultFile, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "result %s\n", resultFile)
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// reportRows lists every metric, the per-config rows included.
func reportRows(ms []metric) []map[string]any {
	rows := make([]map[string]any, len(ms))
	for i, m := range ms {
		rows[i] = map[string]any{"name": m.name, "value": finite(m.value), "unit": m.unit}
	}
	return rows
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
