package ropsim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ropsim/internal/memctrl"
	"ropsim/internal/sim"
	"ropsim/internal/stats"
)

// snapshotDigest hashes every metric's path, kind and fields in the
// snapshot's path order, with floats in shortest round-trip form.
func snapshotDigest(s stats.Snapshot) string {
	h := sha256.New()
	for _, v := range s.Metrics {
		line := v.Path + " " + v.Kind
		for _, f := range v.Fields {
			line += " " + f.Name + "=" + strconv.FormatFloat(f.Value, 'g', -1, 64)
		}
		fmt.Fprintln(h, line)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// presetRun runs cfg with full DRAM command capture and returns one
// golden line: the run's label, its stats-snapshot digest, and the
// digest and length of its command stream.
func presetRun(t *testing.T, label string, cfg Config) string {
	t.Helper()
	var ctrl *memctrl.Controller
	sim.DebugHook = func(c *memctrl.Controller) {
		ctrl = c
		c.CaptureLog().StoreCommands = true
	}
	defer func() { sim.DebugHook = nil }()
	cfg.Capture = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	h := sha256.New()
	cmds := ctrl.CaptureLog().Commands
	for _, c := range cmds {
		fmt.Fprintln(h, c.Kind, c.At, c.Rank, c.Bank, c.Row, c.Col, c.Sub)
	}
	return fmt.Sprintf("%s stats=%s cmds=%x n=%d", label, snapshotDigest(res.Metrics),
		h.Sum(nil)[:8], len(cmds))
}

// TestGoldenRefreshPresets pins every refresh preset byte for byte: the
// stats snapshot and the full DRAM command stream of each preset on
// single-core libquantum over every standard in both row policies, and
// on the 4-core WL1 mix at DDR4-1600 (rank stagger, SRAM buffer
// hand-off between ranks, elastic backlog across ranks). Regenerate
// deliberately with
//
//	go test -run TestGoldenRefreshPresets -update .
func TestGoldenRefreshPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every preset on every standard")
	}
	o := QuickOptions()
	o.Instructions = 120_000
	var lines []string
	for _, std := range DRAMStandards() {
		for _, mode := range Modes() {
			for _, closed := range []bool{false, true} {
				cfg := o.single("libquantum", mode)
				cfg.Standard = std
				cfg.ClosedPage = closed
				page := "open"
				if closed {
					page = "closed"
				}
				lines = append(lines, presetRun(t, fmt.Sprintf("libquantum/%s/%v/%s", std, mode, page), cfg))
			}
		}
	}
	wl1 := Mixes()[0]
	for _, mode := range Modes() {
		cfg := o.multi(wl1.Members, mode, false)
		lines = append(lines, presetRun(t, fmt.Sprintf("%s/DDR4-1600/%v/open", wl1.Name, mode), cfg))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "refresh_presets.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update): %v", path, err)
	}
	if got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, l := range lines {
			if i >= len(wl) || l != wl[i] {
				t.Errorf("preset drifted:\n got  %s\n want %s", l, wl[min(i, len(wl)-1)])
			}
		}
	}
}
