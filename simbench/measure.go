package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ropsim"
	"ropsim/internal/stats"
	"ropsim/internal/trace"
	"ropsim/internal/workload"
)

// outcome is what one execution of an op leaves behind.
type outcome struct {
	insts int64         // instructions retired over all cores
	wall  time.Duration // host wall time of the whole op
	cpu   time.Duration // host CPU time of the whole op, every thread
	// ref is the mean CPU time of the reference runs made around the
	// op (0: none; see calib.go).
	ref    time.Duration
	digest string // digest of the run's metric snapshot
	// roundTrip is the digest of the snapshot without trace.* paths,
	// which a replay must share with its capture.
	roundTrip string
	// snap is the run's metric snapshot, kept for the checked pass
	// only: later repetitions would otherwise grow the live heap, and
	// with it every later run's collection cost.
	snap    stats.Snapshot
	bus     int64   // simulated bus cycles
	cmds    float64 // DRAM commands issued
	ipc     float64 // summed core IPC
	records int     // records a capture encoded
	encode  time.Duration
}

// digest hashes a snapshot: every metric's path, kind and fields, in
// the snapshot's path order, with floats in shortest round-trip form.
// Paths starting with drop are skipped ("" keeps every path).
func digest(s stats.Snapshot, drop string) string {
	h := sha256.New()
	buf := make([]byte, 0, 128)
	for _, v := range s.Metrics {
		if drop != "" && strings.HasPrefix(v.Path, drop) {
			continue
		}
		buf = append(append(append(buf[:0], v.Path...), ' '), v.Kind...)
		for _, f := range v.Fields {
			buf = append(append(append(buf, ' '), f.Name...), '=')
			buf = strconv.AppendFloat(buf, f.Value, 'g', -1, 64)
		}
		h.Write(append(buf, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// execute runs op o once with the given per-core instruction budget,
// under the JEDEC sanitizer when check is set. A capture writes its
// stream to file, as a normal capture does; its replay's snapshot
// check proves the file decodes to the same stream. Spans go to tr
// under parent (tr may be nil).
func execute(o op, budget int64, check bool, file string, tr *tracer, parent int) (outcome, error) {
	cfg := o.cfg
	cfg.Instructions = budget
	cfg.Check = check
	cfg.CaptureTraces = o.kind == opCapture
	if o.kind == opReplay {
		cfg.Benches = []string{trace.Prefix + file}
	}
	var out outcome
	start, cpu0 := time.Now(), cpuTime()
	sid := tr.begin(parent, "run "+o.name)
	simID := tr.begin(sid, "simulate")
	res, err := ropsim.Run(cfg)
	tr.end(simID, nil)
	if err != nil {
		tr.end(sid, nil)
		return out, err
	}
	if o.kind == opCapture {
		recs := res.CoreTraces[0]
		res.CoreTraces = nil
		eid := tr.begin(sid, "trace encode")
		t := time.Now()
		err := writeRopt(file, recs)
		out.encode = time.Since(t)
		tr.end(eid, map[string]any{"records": len(recs)})
		if err != nil {
			tr.end(sid, nil)
			return out, err
		}
		out.records = len(recs)
	}
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	for _, c := range res.Cores {
		out.insts += c.Instructions
		out.ipc += c.IPC
	}
	out.bus = int64(res.ElapsedBus)
	out.snap = res.Metrics
	out.cmds = dramCmds(res.Metrics)
	out.digest = digest(res.Metrics, "")
	out.roundTrip = digest(res.Metrics, "trace.")
	tr.end(sid, map[string]any{"insts": out.insts, "digest": out.digest})
	return out, nil
}

// writeRopt encodes recs into a new .ropt file at path.
func writeRopt(path string, recs []workload.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.EncodeRopt(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime returns the process's CPU time so far, user plus system,
// summed over every thread, so garbage collection on other threads
// counts. Unlike wall time it leaves out the time other tenants of a
// shared host keep this process off the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
