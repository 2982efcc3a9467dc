package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"path"
	"strings"
)

// Layers are the simulator parts a CPU profile's self time is split
// into. Every sample lands in exactly one, so the shares sum to 100%.
var layers = []string{
	"sim", "event", "cpu", "cache", "workload", "trace",
	"memctrl.issue", "memctrl.wake", "memctrl.refresh", "memctrl.other",
	"dram", "core", "stats", "runtime", "other",
}

// packageLayers maps every ropsim package to its layer. The memctrl
// entry is split further by function (see layerOf). Packages a serial
// benchmark run never enters (campaign, runner, lint, analysis) map to
// "other".
var packageLayers = map[string]string{
	"ropsim":                   "sim",
	"ropsim/internal/addr":     "sim", // address mapping, driven by sim's memory-system glue
	"ropsim/internal/analysis": "other",
	"ropsim/internal/cache":    "cache",
	"ropsim/internal/campaign": "other",
	"ropsim/internal/core":     "core",
	"ropsim/internal/cpu":      "cpu",
	"ropsim/internal/dram":     "dram",
	"ropsim/internal/energy":   "sim", // run-level energy accounting
	"ropsim/internal/event":    "event",
	"ropsim/internal/lint":     "other",
	"ropsim/internal/memctrl":  "memctrl",
	"ropsim/internal/runner":   "other",
	"ropsim/internal/sim":      "sim",
	"ropsim/internal/stats":    "stats",
	"ropsim/internal/trace":    "trace",
	"ropsim/internal/vldp":     "core", // the ROP engine's VLDP predictor variant
	"ropsim/internal/workload": "workload",
}

// frame is one function activation in a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

// funcPackage returns the import path of a fully qualified Go function
// name such as "ropsim/internal/memctrl.(*Controller).issueFrom".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isRuntime reports whether pkg belongs to the Go runtime (scheduler,
// allocator, GC, memmove).
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// frameLayer returns the layer of one ropsim frame, or "" when the
// frame is outside ropsim.
func frameLayer(f frame) string {
	l, ok := packageLayers[funcPackage(f.fn)]
	if !ok {
		return ""
	}
	if l != "memctrl" {
		return l
	}
	switch {
	case strings.Contains(f.fn, ".issueFrom"):
		return "memctrl.issue"
	case path.Base(f.file) == "wake.go":
		return "memctrl.wake"
	case path.Base(f.file) == "refresh.go":
		return "memctrl.refresh"
	}
	return "memctrl.other"
}

// layerOf attributes one sampled stack (leaf first). A runtime leaf is
// runtime time (allocation, GC, memmove); any other leaf is charged to
// the nearest ropsim frame, so standard-library helpers count toward
// the layer that called them. Stacks with no ropsim frame, such as the
// benchmark's own code or the profiler, are "other".
func layerOf(stack []frame) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(funcPackage(stack[0].fn)) {
		return "runtime"
	}
	for _, f := range stack {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

// layerShares decodes a gzipped pprof CPU profile and returns each
// layer's share of sampled CPU time in percent, plus the sample count.
// Samples inside a calibration reference run are left out of both.
func layerShares(gz []byte) (map[string]float64, int, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	kept := 0
	for _, s := range samples {
		if inReference(s.stack) {
			continue
		}
		byLayer[layerOf(s.stack)] += s.weight
		total += s.weight
		kept++
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, kept, nil
}

// referenceRun is the calibration reference's run method (calib.go).
const referenceRun = "main.(*reference).run"

// inReference reports whether a sampled stack is inside a calibration
// reference run. Those samples are the benchmark's, not the
// simulator's, and layerShares leaves them out.
func inReference(stack []frame) bool {
	for _, f := range stack {
		if f.fn == referenceRun {
			return true
		}
	}
	return false
}

// sample is one decoded profile sample: its stack and its CPU weight.
type sample struct {
	stack  []frame
	weight int64
}

// parseProfile decodes the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that CPU profiles from
// runtime/pprof use: samples, locations with their (inlined) lines,
// functions and the string table.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		strs    []string
		rawSamp []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]function{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			rawSamp = append(rawSamp, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var f function
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(rawSamp))
	for _, rs := range rawSamp {
		var s sample
		// CPU profiles carry [samples, nanoseconds]; weight by time.
		if n := len(rs.values); n > 0 {
			s.weight = rs.values[n-1]
		}
		for _, id := range rs.locs {
			for _, fid := range locs[id] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, whether the
// encoder wrote it packed (wire type 2) or one value per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and value: v for varints and fixed-width values, b
// for length-delimited ones.
func eachField(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
