package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ropsim/internal/stats"
	"ropsim/internal/trace"
	"ropsim/internal/workload"
)

// setupSweeps is how many set-up sweeps follow each timed pass.
const setupSweeps = 3

// microRecords is how many records each standalone span measurement
// (generator, encode, decode) processes.
const microRecords = 100_000

// bencher runs one workload's passes and collects the report.
type bencher struct {
	opts options
	ops  []op
	rep  *report
	log  io.Writer
	ref  map[string]outcome // the checked pass's outcome per op
	refk reference          // the calibration reference
	// refAllocs is the bytes the reference runs allocated, which the
	// allocation metric leaves out.
	refAllocs uint64
	refMs     []float64 // every reference run's CPU milliseconds
}

// exec runs one op, counting it as attempted and, when it errors or its
// snapshot digest differs from the checked pass, as failed.
func (b *bencher) exec(o op, budget int64, check bool, file string, tr *tracer, parent int) (outcome, bool) {
	b.rep.attempted++
	// Start every op on a collected heap, outside its measured time, as
	// a fresh process would: no op pays for the previous op's garbage.
	runtime.GC()
	out, err := execute(o, budget, check, file, tr, parent)
	if err != nil {
		b.fail("%s: %v", o.name, err)
		return out, false
	}
	if ref, ok := b.ref[o.name]; ok && budget == o.cfg.Instructions && out.digest != ref.digest {
		b.fail("%s: snapshot digest %s differs from the checked run's %s", o.name, out.digest, ref.digest)
		return out, false
	}
	return out, true
}

func (b *bencher) fail(format string, args ...any) {
	b.rep.failed++
	msg := fmt.Sprintf(format, args...)
	b.rep.failures = append(b.rep.failures, msg)
	fmt.Fprintf(b.log, "simbench: FAIL %s\n", msg)
}

// pass is one sweep over every op: each op's outcome, by name.
type pass map[string]outcome

// sweep runs every op once at the given budget (0: each op's full
// budget), writing captures to their files plus suffix. Reference runs
// bracket every full-budget op, and a set-up sweep as a whole, since
// its ops take well under a millisecond each. Each op is calibrated by
// the mean of the two references around it, read from the host just
// before and just after it ran.
func (b *bencher) sweep(budget int64, suffix string, tr *tracer, parent int) pass {
	before := b.reference(tr, parent)
	p := pass{}
	for _, o := range b.ops {
		n := budget
		if n == 0 {
			n = o.cfg.Instructions
		}
		file := o.file
		if o.kind == opCapture {
			file += suffix
		}
		out, ok := b.exec(o, n, false, file, tr, parent)
		if budget == 0 {
			after := b.reference(tr, parent)
			out.ref = (before + after) / 2
			before = after
		}
		if ok {
			out.snap = stats.Snapshot{}
			p[o.name] = out
		}
	}
	if budget != 0 {
		ref := (before + b.reference(tr, parent)) / 2
		for name, out := range p {
			out.ref = ref
			p[name] = out
		}
	}
	return p
}

// reference makes one reference run and returns its CPU time. The
// bytes it allocated add to b.refAllocs.
func (b *bencher) reference(tr *tracer, parent int) time.Duration {
	id := tr.begin(parent, "reference")
	a0 := heapAllocs()
	d := b.refk.run()
	b.refAllocs += heapAllocs() - a0
	b.refMs = append(b.refMs, float64(d)/1e6)
	tr.end(id, nil)
	return d
}

// heapAllocs returns the bytes allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sweeps repeats full-budget passes until at least min ran and secs
// seconds passed, recording a span per pass. After each pass, setupEach
// set-up sweeps run every config with a one-instruction budget; a
// replay still loads and decodes its whole trace file. Interleaving
// spreads the set-up samples over the same window as the passes.
func (b *bencher) sweeps(secs float64, min, setupEach int, tr *tracer, parent int) (passes, setups []pass) {
	start := time.Now()
	for len(passes) < min || time.Since(start).Seconds() < secs {
		id := tr.begin(parent, "pass "+strconv.Itoa(len(passes)))
		passes = append(passes, b.sweep(0, "", tr, id))
		tr.end(id, nil)
		for i := 0; i < setupEach; i++ {
			id := tr.begin(parent, "set-up")
			setups = append(setups, b.sweep(1, ".setup", tr, id))
			tr.end(id, nil)
		}
	}
	return passes, setups
}

// medianOver is the median over passes of f of each pass.
func medianOver(ps []pass, f func(pass) float64) float64 {
	var r []float64
	for _, p := range ps {
		r = append(r, f(p))
	}
	return median(r)
}

// totals sums a pass's instructions, bus cycles, DRAM commands and
// measured CPU time.
func (p pass) totals() (insts, bus int64, cmds float64, cpu time.Duration) {
	for _, o := range p {
		insts += o.insts
		bus += o.bus
		cmds += o.cmds
		cpu += o.cpu
	}
	return insts, bus, cmds, cpu
}

// host is the pass's calibrated host time: the sum of its runs'
// calibrated CPU times.
func (p pass) host() time.Duration {
	var h time.Duration
	for _, o := range p {
		h += calibrated(o.cpu, o.ref)
	}
	return h
}

// instsPerSec is the pass's simulated instructions per calibrated host
// second.
func (p pass) instsPerSec() float64 {
	insts, _, _, _ := p.totals()
	return float64(insts) / p.host().Seconds()
}

// rawInstsPerSec is the pass's simulated instructions per measured,
// uncalibrated CPU second.
func (p pass) rawInstsPerSec() float64 {
	insts, _, _, cpu := p.totals()
	return float64(insts) / cpu.Seconds()
}

// benchmark runs the workload named by o and returns its report.
func benchmark(o options, log io.Writer) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	ops, err := buildOps(o.workload, o.seed, o.scale, tmp)
	if err != nil {
		return nil, err
	}
	b := &bencher{
		opts: o, ops: ops, log: log,
		ref: map[string]outcome{},
		rep: &report{
			opts: o, host: hostFacts(o), configs: opNames(ops), configSeeds: map[string]int64{},
			digests: map[string]string{}, tracedDigests: map[string]string{},
			samples: map[string][]float64{},
		},
	}
	for _, op := range ops {
		b.rep.configSeeds[op.name] = op.cfg.Seed
	}
	// Correctness: every config once under the JEDEC sanitizer. Its
	// digests are the reference every later run must reproduce, and a
	// replay must reproduce its capture's snapshot.
	for _, op := range ops {
		if out, ok := b.exec(op, op.cfg.Instructions, true, op.file, nil, 0); ok {
			b.ref[op.name] = out
			b.rep.digests[op.name] = out.digest
		}
	}
	// Peak memory is read here, after every config ran once: later
	// repetitions only add the harness's allocation churn.
	rss := peakRSSMiB()
	for _, op := range ops {
		if op.kind != opReplay {
			continue
		}
		r, c := b.ref[op.name], b.ref[op.capture]
		if r.roundTrip == "" || r.roundTrip != c.roundTrip {
			b.fail("%s: replay snapshot (trace.* removed) %s differs from capture %s", op.name, r.roundTrip, c.roundTrip)
		}
	}

	// One warm-up pass, checked like the rest but not timed: the first
	// pass after the checked one runs slower in most invocations.
	b.sweep(0, "", nil, 0)
	timed, setups := b.sweeps(o.seconds, 3, setupSweeps, nil, 0)
	b.endToEnd(timed, setups, rss)
	if !o.trace {
		return b.rep, nil
	}
	if err := b.traced(timed); err != nil {
		return nil, err
	}
	return b.rep, nil
}

// add appends a reported metric.
func (b *bencher) add(name string, value float64, unit string) {
	b.rep.metrics = append(b.rep.metrics, metric{name: name, value: value, unit: unit})
}

// endToEnd reports the five end-to-end metrics from the untraced
// sweeps, in calibrated host time (calib.go). Throughput is the median
// over passes. A config's rate is the median pass throughput times the
// config's median speed relative to the pass it ran in, so contention
// left over after calibration that slows a whole pass cancels in that
// ratio too. setup_s is the median over set-up sweeps. The
// uncalibrated figures and the reference's own times are report rows.
func (b *bencher) endToEnd(timed, setups []pass, rss float64) {
	passRate := make([]float64, len(timed))
	var rawRate []float64
	for i, p := range timed {
		passRate[i] = p.instsPerSec()
		rawRate = append(rawRate, p.rawInstsPerSec())
	}
	rate := median(passRate)
	b.rep.samples["pass_insts_per_s"] = passRate
	b.rep.samples["pass_raw_insts_per_s"] = rawRate
	slowest := math.Inf(1)
	for _, op := range b.ops {
		var rel []float64
		for i, p := range timed {
			if out, ok := p[op.name]; ok {
				rel = append(rel, float64(out.insts)/calibrated(out.cpu, out.ref).Seconds()/passRate[i])
			}
		}
		b.rep.samples["run_rel_speed."+op.name] = rel
		if len(rel) > 0 {
			slowest = math.Min(slowest, rate*median(rel))
		}
	}
	if math.IsInf(slowest, 1) {
		slowest = 0
	}
	var setup, rawSetup []float64
	for _, p := range setups {
		_, _, _, cpu := p.totals()
		setup = append(setup, p.host().Seconds())
		rawSetup = append(rawSetup, cpu.Seconds())
	}
	b.rep.samples["setup_s"] = setup
	refs := b.refMs
	b.rep.samples["reference_ms"] = refs

	b.add("sim_insts_per_s", rate, "1/s")
	b.add("slowest_run_insts_per_s", slowest, "1/s")
	b.add("setup_s", median(setup), "s")
	b.add("peak_rss_mib", rss, "MiB")
	b.add("ok_run_frac", float64(b.rep.attempted-b.rep.failed)/float64(max(b.rep.attempted, 1)), "ratio")
	b.row("raw.sim_insts_per_s", median(rawRate), "1/s")
	b.row("raw.setup_s", median(rawSetup), "s")
	b.row("reference_ms", median(refs), "ms")
}

// row appends a report-only row.
func (b *bencher) row(name string, value float64, unit string) {
	b.rep.metrics = append(b.rep.metrics, metric{name: name, value: value, unit: unit, row: true})
}

// traced runs the profiled, span-recorded pass and reports the
// per-layer metrics. The end-to-end rows stay in the report for the
// human reader, but the summary of a traced run carries only per-layer
// metrics.
func (b *bencher) traced(timed []pass) error {
	for i := range b.rep.metrics {
		b.rep.metrics[i].row = true
	}
	tr := newTracer()
	root := tr.begin(0, "workload "+b.opts.workload)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ref0 := b.refAllocs
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	// The traced passes are calibrated like the timed ones, so the
	// tracing overhead compares like with like. The profile, the
	// allocation count and the GC count leave the reference runs out.
	tracedPasses, _ := b.sweeps(b.opts.seconds/4, 1, 0, tr, root)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	alloc := ms1.TotalAlloc - ms0.TotalAlloc - (b.refAllocs - ref0)
	tr.end(root, nil)
	// The last traced pass's digests go to the result file, so a traced
	// result can be compared with an untraced one config by config.
	for name, out := range tracedPasses[len(tracedPasses)-1] {
		b.rep.tracedDigests[name] = out.digest
	}

	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, l := range layers {
		name := "host." + l + ".self_share"
		if strings.HasPrefix(l, "memctrl.") {
			name = "host." + l + "_share"
		}
		b.add(name, shares[l], "%")
	}
	var insts int64
	for _, p := range tracedPasses {
		n, _, _, _ := p.totals()
		insts += n
	}
	b.add("host.profile_samples", float64(samples), "count")
	b.add("host.alloc_bytes_per_kinst", float64(alloc)/(float64(insts)/1000), "B")
	// exec forces a collection before every run, and so does every
	// reference run; only the collections the simulator's own
	// allocation triggered are counted.
	gcs := (ms1.NumGC - ms0.NumGC) - (ms1.NumForcedGC - ms0.NumForcedGC)
	b.add("host.gc_cycles", float64(gcs)/float64(len(tracedPasses)), "count")
	b.add("host.trace_overhead_pct", (medianOver(timed, pass.instsPerSec)/medianOver(tracedPasses, pass.instsPerSec)-1)*100, "%")

	if err := b.spanMetrics(tr, tracedPasses); err != nil {
		return err
	}
	b.simMetrics(timed)

	spansFile := filepath.Join(b.opts.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.opts.workload, b.opts.seed))
	meta := map[string]any{"host": b.rep.host, "configs": b.rep.configs}
	if err := tr.writeChrome(spansFile, meta); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "simbench: spans written to %s\n", spansFile)
	return nil
}

// spanMetrics reports span timings: encode and decode per record,
// generator Next per record, and each config's wall time. Encode is
// timed inside the capture runs; decode and Next are timed here, after
// the profile stopped and peak memory was read.
func (b *bencher) spanMetrics(tr *tracer, traced []pass) error {
	micro := tr.begin(0, "standalone spans")
	var encNs float64
	var recs int
	for _, p := range traced {
		for _, out := range p {
			encNs += float64(out.encode.Nanoseconds())
			recs += out.records
		}
	}
	var decNs float64
	var decRecs int
	if recs > 0 {
		// Decode each file the last traced pass captured, as a replay
		// loads it, outside every measured run.
		for _, op := range b.ops {
			if op.kind != opCapture {
				continue
			}
			id := tr.begin(micro, "trace decode "+op.name)
			t := time.Now()
			back, err := trace.LoadFile(op.file)
			if err != nil {
				return err
			}
			decNs += float64(time.Since(t).Nanoseconds())
			decRecs += len(back)
			tr.end(id, map[string]any{"records": len(back)})
		}
	} else {
		// No capture in this workload: time encode and decode of a
		// stream from the workload's first generator, in memory.
		encNs, decNs, recs = encodeDecode(tr, micro, profiles(b.ops)[0], b.opts.seed)
		decRecs = recs
	}
	b.add("span.trace.encode_ns_per_rec", encNs/float64(recs), "ns")
	b.add("span.trace.decode_ns_per_rec", decNs/float64(decRecs), "ns")

	var nextNs float64
	var nextRecs int
	for _, p := range profiles(b.ops) {
		id := tr.begin(micro, "workload next "+p)
		gen := workload.NewGenerator(workload.MustGet(p), b.opts.seed)
		t := time.Now()
		for i := 0; i < microRecords; i++ {
			gen.Next()
		}
		nextNs += float64(time.Since(t).Nanoseconds())
		nextRecs += microRecords
		tr.end(id, map[string]any{"records": microRecords})
	}
	tr.end(micro, nil)
	b.add("span.workload.next_ns_per_rec", nextNs/float64(nextRecs), "ns")

	for _, op := range b.ops {
		var ds []float64
		for _, p := range traced {
			if out, ok := p[op.name]; ok {
				ds = append(ds, out.wall.Seconds())
			}
		}
		b.row("span.run_s."+op.name, median(ds), "s")
	}
	return nil
}

// encodeDecode times an in-memory .ropt encode and decode of
// microRecords records from profile p's generator.
func encodeDecode(tr *tracer, parent int, p string, seed int64) (encNs, decNs float64, n int) {
	recs := workload.Take(workload.NewGenerator(workload.MustGet(p), seed), microRecords)
	var buf bytes.Buffer
	id := tr.begin(parent, "trace encode")
	t := time.Now()
	err := trace.EncodeRopt(&buf, recs)
	encNs = float64(time.Since(t).Nanoseconds())
	tr.end(id, map[string]any{"records": len(recs), "error": fmt.Sprint(err)})
	id = tr.begin(parent, "trace decode")
	t = time.Now()
	var back []workload.Record
	if r, err := trace.DecodeRopt(buf.Bytes()); err == nil {
		back, _ = r.ReadAll()
	}
	decNs = float64(time.Since(t).Nanoseconds())
	tr.end(id, map[string]any{"records": len(back)})
	return encNs, decNs, len(recs)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
