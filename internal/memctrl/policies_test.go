package memctrl

import (
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// Tests for the Chang et al. HPCA'14 policy family: out-of-order
// per-bank refresh scheduling, DARP's write-drain piggybacking, and
// SARP's subarray access-refresh parallelization.

// armChecker validates every command the controller issues against an
// independent JEDEC timing checker and returns a pointer to the first
// latched violation.
func armChecker(c *Controller, checker *dram.Checker) *error {
	var checkErr error
	c.SetCommandObserver(func(cmd dram.Command) {
		if checkErr == nil {
			checkErr = checker.Check(cmd)
		}
	})
	return &checkErr
}

// TestOoOPullInPostponeWindow is the pull-in/postpone window property
// test: under saturating demand on one rank (postponing refreshes) and
// total idleness on the other (pulling them in), the out-of-order
// scheduler must never hold more than maxElasticBacklog owed refreshes
// or bank more than maxPullInAhead of pull-in credit, read right after
// every refresh issue, and its command stream must stay checker-clean.
func TestOoOPullInPostponeWindow(t *testing.T) {
	c, q := newController(t, ModeOutOfOrderBank, nil)
	p := c.Device().Params()
	checkErr := armChecker(c, dram.NewChecker(p, testGeo()))

	// Saturating reads across every bank of rank 0: no slot is ever
	// idle, so refreshes ride the postpone window to its edge. Rank 1
	// stays untouched, so its scheduler pulls refreshes in instead.
	line := 0
	var drive func(now event.Cycle)
	drive = func(now event.Cycle) {
		c.EnqueueRead(addr.Loc{Rank: 0, Bank: line % 8, Row: (line * 13) % 512, Col: line % 64},
			0, func(event.Cycle) {})
		line++
		if now < 20*p.REFI {
			q.Schedule(now+3, drive)
		}
	}
	q.Schedule(0, drive)

	// Step to an idle tail past the traffic horizon, reading every
	// rank's owed and pulled-ahead counts whenever a refresh issued.
	maxOwed, maxAhead := 0, 0
	issued := c.RefreshesIssued.Value()
	for at, ok := q.PeekTime(); ok && at <= 30*p.REFI; at, ok = q.PeekTime() {
		q.Step()
		if c.RefreshesIssued.Value() == issued {
			continue
		}
		issued = c.RefreshesIssued.Value()
		for r := range c.refresh {
			owed, ahead := oooBacklog(c, r, q.Now())
			maxOwed, maxAhead = max(maxOwed, owed), max(maxAhead, ahead)
		}
	}

	if *checkErr != nil {
		t.Fatalf("protocol violation: %v", *checkErr)
	}
	if maxOwed > maxElasticBacklog {
		t.Errorf("owed refreshes peaked at %d, JEDEC window is %d", maxOwed, maxElasticBacklog)
	}
	if maxAhead > maxPullInAhead {
		t.Errorf("pull-in credit peaked at %d, JEDEC window is %d", maxAhead, maxPullInAhead)
	}
	if c.RefreshPullIns.Value() == 0 {
		t.Error("no pull-ins despite an idle rank")
	}
	if c.RefreshPostponedCycles.N() == 0 {
		t.Error("no owed issues despite saturating reads")
	}
	if maxOwed == 0 {
		t.Error("saturating reads never postponed a refresh")
	}
}

// TestDARPWriteDrainPiggyback exercises DARP's write-refresh
// parallelization: reads keep banks 1-7 busy the whole run (their
// refreshes stay postponed), writes arrive in bursts on bank 0 only,
// and every drain batch must let the scheduler refresh the write-free
// read-busy banks mid-drain — visible both in the DrainPiggybacks
// counter and as REFpb commands inside the write bursts of the
// captured command stream.
func TestDARPWriteDrainPiggyback(t *testing.T) {
	c, q := newController(t, ModeDARP, func(cfg *Config) { cfg.Capture = true })
	c.CaptureLog().StoreCommands = true
	cfg := DefaultConfig(ModeDARP)
	p := c.Device().Params()
	checkErr := armChecker(c, dram.NewChecker(p, testGeo()))

	line := 0
	var reads func(now event.Cycle)
	reads = func(now event.Cycle) {
		b := 1 + line%7
		c.EnqueueRead(addr.Loc{Rank: 0, Bank: b, Row: (line * 29) % 512, Col: line % 64},
			0, func(event.Cycle) {})
		line++
		if now < 12*p.REFI {
			q.Schedule(now+3, reads)
		}
	}
	q.Schedule(0, reads)

	wline := 0
	var writes func(now event.Cycle)
	writes = func(now event.Cycle) {
		for i := 0; i < cfg.WriteHigh+4; i++ {
			c.EnqueueWrite(addr.Loc{Rank: 0, Bank: 0, Row: (wline * 17) % 512, Col: wline % 64}, 0)
			wline++
		}
		if now < 10*p.REFI {
			q.Schedule(now+2*p.REFI, writes)
		}
	}
	q.Schedule(p.REFI/2, writes)
	q.RunUntil(14 * p.REFI)

	if *checkErr != nil {
		t.Fatalf("protocol violation: %v", *checkErr)
	}
	if c.DrainPiggybacks.Value() == 0 {
		t.Fatal("no refreshes piggybacked on write drains")
	}
	// Command-stream evidence: a per-bank refresh to a read-busy bank
	// issued strictly inside the write activity window.
	cmds := c.CaptureLog().Commands
	firstWR, lastWR := event.Cycle(-1), event.Cycle(-1)
	for _, cmd := range cmds {
		if cmd.Kind == dram.CmdWR {
			if firstWR < 0 {
				firstWR = cmd.At
			}
			lastWR = cmd.At
		}
	}
	if firstWR < 0 {
		t.Fatal("no writes served")
	}
	found := false
	for _, cmd := range cmds {
		if cmd.Kind == dram.CmdREFpb && cmd.Bank != 0 && cmd.At > firstWR && cmd.At < lastWR {
			found = true
			break
		}
	}
	if !found {
		t.Error("no REFpb to a read-busy bank inside the write window")
	}
}

// TestSARPParallelService exercises subarray access-refresh
// parallelization: dense single-bank traffic spanning every subarray
// must keep being served while the bank's target subarray refreshes
// (SARPParallelServes > 0), with the command stream clean under the
// checker's subarray-conflict rule (REFsaDur = tRFCpb, as the sim
// harness arms it for SARP).
func TestSARPParallelService(t *testing.T) {
	c, q := newController(t, ModeSARP, nil)
	p := c.Device().Params()
	checker := dram.NewChecker(p, testGeo())
	checker.REFsaDur = p.RFCpb
	checkErr := armChecker(c, checker)

	line := 0
	var drive func(now event.Cycle)
	drive = func(now event.Cycle) {
		if c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: (line * 37) % 512, Col: line % 64},
			0, func(event.Cycle) {}) {
			line++
		}
		if now < 16*p.REFI {
			q.Schedule(now+4, drive)
		}
	}
	q.Schedule(0, drive)
	q.RunUntil(20 * p.REFI)

	if *checkErr != nil {
		t.Fatalf("protocol violation: %v", *checkErr)
	}
	if c.SARPParallelServes.Value() == 0 {
		t.Error("no demand commands overlapped an in-flight subarray refresh")
	}
	if c.ReadQueueLen() != 0 {
		t.Errorf("read queue stuck with %d entries", c.ReadQueueLen())
	}
	if c.RefreshesIssued.Value() == 0 {
		t.Error("no refreshes issued")
	}
}
