package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ropsim"
	"ropsim/internal/stats"
)

// testScale shrinks every instruction budget so a whole workload runs
// in well under a second.
const testScale = 0.01

type summary struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// invoke runs the benchmark at test scale and returns its parsed
// summary line, its output directory and its printed config digests,
// failing the test on a non-zero exit.
func invoke(t *testing.T, workload string, seed int64, traced bool) (summary, string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	o := options{workload: workload, seed: seed, trace: traced, scale: testScale, outDir: dir}
	var stdout, stderr bytes.Buffer
	if code := runBenchmark(o, &stdout, &stderr); code != 0 {
		t.Fatalf("%s seed %d traced=%v: exit %d\n%s", workload, seed, traced, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	digests := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "digest" {
			digests[f[1]] = f[2]
		}
	}
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last stdout line is not the summary: %v", err)
	}
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", workload, s.Correct, s.Failed, s.Attempted)
	}
	return s, dir, digests
}

// mustBePositive names metrics that every workload measures above 0.
var mustBePositive = map[string]bool{
	"sim_insts_per_s": true, "slowest_run_insts_per_s": true, "setup_s": true,
	"peak_rss_mib": true, "ok_run_frac": true,
	"sim.bus_cycles": true, "sim.bus_cycles_per_s": true, "sim.host_ns_per_dram_cmd": true,
	"dram.cmds": true, "host.alloc_bytes_per_kinst": true,
}

// TestMetricsMatchSpec checks that every workload emits exactly the
// metric names and units BENCHMARK.json lists, untraced and traced. A
// traced run also checks that its digests equal the untraced ones.
func TestMetricsMatchSpec(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			s, _, _ := invoke(t, w.Name, 1, traced)
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(s.Metrics), len(want))
			}
			for _, m := range want {
				raw, ok := s.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				var v struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				}
				if err := json.Unmarshal(raw, &v); err != nil || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q (%v)", w.Name, traced, m.Name, v.Unit, m.Unit, err)
				}
				if mustBePositive[m.Name] && !(v.Value > 0) {
					t.Errorf("%s traced=%v: metric %s = %v, want > 0", w.Name, traced, m.Name, v.Value)
				}
			}
		}
	}
}

// TestSecondSeedRunsClean runs every workload on another seed.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, w := range workloadNames {
		invoke(t, w, 7, false)
	}
}

// TestTracedDigestsMatchUntraced checks that tracing changes no
// simulated result: the digests of a traced pass, from the traced
// invocation's result file, equal those an untraced invocation prints.
func TestTracedDigestsMatchUntraced(t *testing.T) {
	for _, w := range workloadNames {
		_, _, plain := invoke(t, w, 3, false)
		_, dir, _ := invoke(t, w, 3, true)
		data, err := os.ReadFile(filepath.Join(dir, "result-"+w+"-seed3-trace1.json"))
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			TracedDigests map[string]string `json:"traced_digests"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		if len(plain) == 0 || !reflect.DeepEqual(plain, res.TracedDigests) {
			t.Errorf("%s: untraced digests %v, traced %v", w, plain, res.TracedDigests)
		}
	}
}

// TestRunRejectsBadFlags checks that the command line refuses an
// unknown option and a -trace other than 0 or 1 before running.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "sc-sweep", "--scale", "0.01"},
		{"--workload", "sc-sweep", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, stdout.String())
		}
	}
}

// TestSpansFile checks that a traced run writes Chrome trace events
// whose parent ids all name earlier spans.
func TestSpansFile(t *testing.T) {
	_, dir, _ := invoke(t, "trace-roundtrip", 1, true)
	data, err := os.ReadFile(filepath.Join(dir, "spans-trace-roundtrip-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	ids := map[float64]bool{0: true}
	names := map[string]bool{}
	for _, e := range f.TraceEvents {
		ids[e.Args["id"].(float64)] = true
		names[strings.Fields(e.Name)[0]] = true
	}
	for _, e := range f.TraceEvents {
		if p := e.Args["parent"].(float64); !ids[p] {
			t.Errorf("span %q has unknown parent %v", e.Name, p)
		}
	}
	for _, n := range []string{"workload", "pass", "run", "simulate", "trace"} {
		if !names[n] {
			t.Errorf("no %q span in %v", n, names)
		}
	}
}

// TestEveryPackageHasALayer checks that every ropsim/internal package
// maps to a layer, and every layer is one the profile reports.
func TestEveryPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"memctrl": true}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		l, ok := packageLayers["ropsim/internal/"+e.Name()]
		if !ok {
			t.Errorf("package ropsim/internal/%s has no layer", e.Name())
		} else if !known[l] {
			t.Errorf("package ropsim/internal/%s maps to unknown layer %q", e.Name(), l)
		}
	}
}

// TestLayerOf pins the attribution rules.
func TestLayerOf(t *testing.T) {
	mc := "ropsim/internal/memctrl.(*Controller)."
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{mc + "issueFrom", "/x/memctrl/controller.go"}}, "memctrl.issue"},
		{[]frame{{mc + "queueWake", "/x/memctrl/wake.go"}}, "memctrl.wake"},
		{[]frame{{mc + "refreshWake", "/x/memctrl/refresh.go"}}, "memctrl.refresh"},
		{[]frame{{mc + "tick", "/x/memctrl/controller.go"}}, "memctrl.other"},
		{[]frame{{"runtime.mallocgc", ""}, {"ropsim/internal/cpu.(*Core).step", ""}}, "runtime"},
		{[]frame{{"sort.Search", ""}, {"ropsim/internal/stats.(*Histogram).Observe", ""}}, "stats"},
		{[]frame{{"crypto/sha256.block", ""}, {"main.digest", ""}}, "other"},
		{[]frame{{"ropsim/internal/event.(*Queue).Step", ""}}, "event"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestInReference checks which stacks count as calibration reference
// time, which the profile shares leave out.
func TestInReference(t *testing.T) {
	ref := []frame{{"runtime.mapassign_fast64", ""}, {referenceRun, ""}, {"main.(*bencher).reference", ""}}
	if !inReference(ref) {
		t.Errorf("inReference(%v) = false", ref)
	}
	sim := []frame{{"runtime.mapassign_fast64", ""}, {"ropsim/internal/cpu.(*Core).step", ""}}
	if inReference(sim) {
		t.Errorf("inReference(%v) = true", sim)
	}
}

// TestProfileSharesSumTo100 profiles a real simulation and checks the
// decoded layer shares cover every sample.
func TestProfileSharesSumTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	cfg := ropsim.Default("lbm", "libquantum")
	cfg.Instructions = 400_000
	for i := 0; i < 3; i++ {
		if _, err := ropsim.Run(cfg); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no profile samples")
	}
	var total float64
	for _, l := range layers {
		total += shares[l]
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares sum to %v%%, want 100%%: %v", total, shares)
	}
	if shares["memctrl.issue"]+shares["memctrl.other"]+shares["dram"] == 0 {
		t.Errorf("no memctrl or dram time in a memory-bound run: %v", shares)
	}
}

// TestDigest checks that the digest sees every field and that drop
// removes exactly the named subtree.
func TestDigest(t *testing.T) {
	s := stats.Snapshot{Schema: 1, Metrics: []stats.Value{
		{Path: "dram.num_act", Kind: "counter", Fields: []stats.Field{{Name: "value", Value: 3}}},
		{Path: "trace.core0.records_replayed", Kind: "counter", Fields: []stats.Field{{Name: "value", Value: 9}}},
	}}
	other := stats.Snapshot{Schema: 1, Metrics: []stats.Value{
		{Path: "dram.num_act", Kind: "counter", Fields: []stats.Field{{Name: "value", Value: 4}}},
		{Path: "trace.core0.records_replayed", Kind: "counter", Fields: []stats.Field{{Name: "value", Value: 9}}},
	}}
	if digest(s, "") == digest(other, "") {
		t.Error("digest ignores a field value")
	}
	bare := stats.Snapshot{Schema: 1, Metrics: s.Metrics[:1]}
	if digest(s, "trace.") != digest(bare, "") {
		t.Error("dropping trace.* does not match the snapshot without it")
	}
}

// TestCalibrated pins the calibration formula: a run measured between
// references that took twice refNominal counts half its CPU time.
func TestCalibrated(t *testing.T) {
	cases := []struct{ cpu, ref, want time.Duration }{
		{10 * time.Millisecond, refNominal, 10 * time.Millisecond},
		{10 * time.Millisecond, 2 * refNominal, 5 * time.Millisecond},
		{10 * time.Millisecond, refNominal / 2, 20 * time.Millisecond},
		{10 * time.Millisecond, 0, 10 * time.Millisecond},
	}
	for _, c := range cases {
		if got := calibrated(c.cpu, c.ref); got != c.want {
			t.Errorf("calibrated(%v, %v) = %v, want %v", c.cpu, c.ref, got, c.want)
		}
	}
}

// TestReferenceLeavesGCOn checks that a reference run does real work
// and turns the collector back on at the setting it found.
func TestReferenceLeavesGCOn(t *testing.T) {
	old := debug.SetGCPercent(70)
	defer debug.SetGCPercent(old)
	var r reference
	if d := r.run(); d <= 0 {
		t.Errorf("reference run took %v of CPU time", d)
	}
	if got := debug.SetGCPercent(70); got != 70 {
		t.Errorf("GC percent after a reference run is %d, want 70", got)
	}
}

// TestSubSeedGroups checks that compared configs share a Config.Seed,
// that other configs draw their own, and that --seed reaches all.
func TestSubSeedGroups(t *testing.T) {
	for _, w := range workloadNames {
		ops, err := buildOps(w, 5, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		other, _ := buildOps(w, 6, 1, t.TempDir())
		byName := map[string]op{}
		for _, o := range ops {
			byName[o.name] = o
		}
		groups := map[int64]int{}
		for i, o := range ops {
			groups[o.cfg.Seed]++
			if other[i].cfg.Seed == o.cfg.Seed {
				t.Errorf("%s: seeds 5 and 6 give the same Config.Seed", o.name)
			}
			pair := o.baseline
			if pair == "" {
				pair = o.capture
			}
			if pair != "" && byName[pair].cfg.Seed != o.cfg.Seed {
				t.Errorf("%s: Config.Seed differs from %s's", o.name, pair)
			}
		}
		want := map[string]int{"mc4-intensive": 12, "sc-sweep": 12, "trace-roundtrip": 3}[w]
		if len(groups) != want {
			t.Errorf("%s: %d seed groups, want %d", w, len(groups), want)
		}
	}
}
