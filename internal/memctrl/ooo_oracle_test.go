package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// This file keeps the out-of-order ordering's full per-call recount as
// the reference the cached tally and the reordered pick are checked
// against: the pick that asks every unit's queue probe, the backlog
// walk over every unit, the wake's own boundary loop, and the queue
// probe that walks the unit's bank lists.

// oraclePick chooses which unit (if any) rank r should refresh at now. It
// returns the unit and whether the issue is a pull-in, or -1.
func (o outOfOrder) oraclePick(c *Controller, r int, now event.Cycle) (unit int, pullIn bool) {
	due := c.refresh[r].unitDue
	owed, ahead := oracleOoOBacklog(c, r, now)
	best := -1
	for u, d := range due {
		switch {
		case owed >= maxElasticBacklog && d > now:
			continue // forced: only owed units compete, idle or not
		case owed < maxElasticBacklog && !o.oracleIdle(c, r, u):
			continue
		case d > now && ahead >= maxPullInAhead:
			continue // pull-in credit exhausted
		}
		if best < 0 || d < due[best] {
			best = u
		}
	}
	if best < 0 {
		return -1, false
	}
	return best, due[best] > now
}

// oracleIdle reports whether unit u's banks have no queued demand of the kind
// the scheduler is serving: reads normally, writes during a drain batch
// when drain-aware.
func (o outOfOrder) oracleIdle(c *Controller, r, u int) bool {
	if o.drainAware && c.draining {
		return !c.oracleUnitHas(&c.writeIdx, r, u)
	}
	return !c.oracleUnitHas(&c.readIdx, r, u)
}

// oracleUnitHas reports whether the indexed queue holds a request for a bank
// of rank r's refresh unit u.
func (c *Controller) oracleUnitHas(ix *bankIndex, r, u int) bool {
	banks := c.units[u]
	if len(banks) == c.geo.Banks {
		return ix.rankN[r] > 0
	}
	for _, b := range banks {
		if len(ix.list(r, b)) > 0 {
			return true
		}
	}
	return false
}

// oracleOoOBacklog tallies rank r's out-of-order refresh position at now:
// owed counts refreshes whose unit boundary has passed without an
// issue, ahead counts refreshes issued before their boundary (pull-ins
// still in credit).
func oracleOoOBacklog(c *Controller, r int, now event.Cycle) (owed, ahead int) {
	refi := c.dev.Params().REFI
	for _, d := range c.refresh[r].unitDue {
		if d <= now {
			owed += int((now-d)/refi) + 1
		} else {
			ahead += int((d - now - 1) / refi)
		}
	}
	return owed, ahead
}

// oracleStartWake for out-of-order refresh is now+1 when a unit is pickable
// right now (refreshStep runs the pick on its next tick), else the
// earliest upcoming unit-schedule boundary — the first cycle a refresh
// becomes owed (possibly forcing an issue) or a pull-in credit decays
// (freeing room for another pull-in), either of which can change the
// pick. Queue changes that unblock a pick between boundaries arm
// immediate ticks of their own.
func (o outOfOrder) oracleStartWake(c *Controller, r int, now event.Cycle) event.Cycle {
	if u, _ := o.oraclePick(c, r, now); u >= 0 {
		return now + 1
	}
	refi := c.dev.Params().REFI
	t := cycleNever
	for _, d := range c.refresh[r].unitDue {
		var b event.Cycle
		if d > now {
			// Next cycle this unit's ahead-count drops by one (its due
			// boundary when only one tREFI ahead).
			b = d - ((d-now-1)/refi)*refi
		} else {
			// Already owed: next cycle its owed-count grows by one.
			b = d + ((now-d)/refi+1)*refi
		}
		t = min(t, b)
	}
	return t
}

// oooSpreads are the unitDue ranges, in tREFI around now, a rank's
// schedule is drawn from: wide (deep backlogs, forced issues and spent
// credit), all ahead (nothing owed), near, and just around now.
var oooSpreads = [][2]float64{{-10, 10}, {0, 10}, {0, 2}, {-1, 1}, {-0.2, 0.3}}

// oooWorld drives random queue changes, schedules, drain batches,
// refresh issues and time steps into one out-of-order controller.
type oooWorld struct {
	c   *Controller
	o   outOfOrder
	rng *rand.Rand
	now event.Cycle
}

// spread redraws rank r's unit schedule around now, as a fresh
// schedule would set it.
func (w *oooWorld) spread(r int) {
	refi := float64(w.c.p.REFI)
	s := oooSpreads[w.rng.Intn(len(oooSpreads))]
	rr := &w.c.refresh[r]
	for u := range rr.unitDue {
		off := s[0] + w.rng.Float64()*(s[1]-s[0])
		rr.unitDue[u] = w.now + event.Cycle(off*refi)
	}
	rr.tallyNext = 0
}

// issue refreshes one unit of rank r through the ordering at the unit's
// earliest legal refresh cycle: the picked unit when there is one,
// else a random one.
func (w *oooWorld) issue(r int) {
	c := w.c
	rr := &c.refresh[r]
	u, _ := w.o.pick(c, r, w.now)
	if u < 0 {
		u = w.rng.Intn(len(c.units))
	}
	w.now = c.dev.EarliestREFSlot(w.now, r, u)
	rr.target, rr.pullIn = u, rr.unitDue[u] > w.now
	c.order.refresh(c, r, w.now)
}

// step applies one random action.
func (w *oooWorld) step() {
	c, rng := w.c, w.rng
	switch k := rng.Intn(100); {
	case k < 25: // enqueue a demand read or write
		ix := &c.readIdx
		if rng.Intn(2) == 0 {
			ix = &c.writeIdx
		}
		loc := addr.Loc{Rank: rng.Intn(c.geo.Ranks), Bank: rng.Intn(c.geo.Banks), Row: rng.Intn(8)}
		c.pushRequest(ix, &request{loc: loc, arrive: w.now})
	case k < 45: // dequeue a random request
		ix := &c.readIdx
		if rng.Intn(2) == 0 {
			ix = &c.writeIdx
		}
		if len(ix.active) > 0 {
			l := ix.lists[ix.active[rng.Intn(len(ix.active))]]
			ix.remove(l[rng.Intn(len(l))])
		}
	case k < 50:
		c.draining = !c.draining
	case k < 52:
		w.spread(rng.Intn(c.geo.Ranks))
	case k < 65:
		w.issue(rng.Intn(c.geo.Ranks))
	case k < 85: // a short step
		w.now += event.Cycle(rng.Intn(64))
	default: // a long step, up to two tREFI
		w.now += event.Cycle(rng.Int63n(int64(2 * c.p.REFI)))
	}
}

// check compares every rank's pick and start wake with the oracle's,
// asked in the controller's order (refreshStep's pick, then
// refreshWake's).
func (w *oooWorld) check(t *testing.T, where string) {
	t.Helper()
	c := w.c
	for r := range c.refresh {
		u, pullIn := w.o.pick(c, r, w.now)
		wantU, wantPullIn := w.o.oraclePick(c, r, w.now)
		if u != wantU || pullIn != wantPullIn {
			t.Fatalf("%s rank %d at %d: pick %d/%v, oracle %d/%v", where, r, w.now, u, pullIn, wantU, wantPullIn)
		}
		wake, want := w.o.startWake(c, r, w.now), w.o.oracleStartWake(c, r, w.now)
		if wake != want {
			t.Fatalf("%s rank %d at %d: startWake %d, oracle %d", where, r, w.now, wake, want)
		}
		owed, ahead := oooBacklog(c, r, w.now)
		wantOwed, wantAhead := oracleOoOBacklog(c, r, w.now)
		if owed != wantOwed || ahead != wantAhead {
			t.Fatalf("%s rank %d at %d: backlog %d/%d, oracle %d/%d", where, r, w.now, owed, ahead, wantOwed, wantAhead)
		}
	}
}

// TestOoOPickMatchesOracle checks the out-of-order ordering's cached
// tally, reordered pick and cached start wake against the full recount
// on random queues, schedules spread over ±10 tREFI, drain batches and
// refresh issues, with time stepping forward as in the controller: on
// DDR4-1600 (8 one-bank slots), DDR5-4800 (multi-bank slots) and
// LPDDR4-3200, 1–32 ranks, out-of-order and DARP.
func TestOoOPickMatchesOracle(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	rng := rand.New(rand.NewSource(3))
	for _, standard := range []string{"DDR4-1600", "DDR5-4800", "LPDDR4-3200"} {
		std, err := dram.Lookup(standard)
		if err != nil {
			t.Fatal(err)
		}
		p, err := std.Params(dram.Refresh1x)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeOutOfOrderBank, ModeDARP} {
			for _, ranks := range []int{1, 4, 32} {
				c := MustNew(DefaultConfig(mode), dram.NewDevice(p, std.Geometry(ranks)), &event.Queue{})
				w := &oooWorld{c: c, o: c.order.(outOfOrder), rng: rand.New(rand.NewSource(rng.Int63()))}
				for r := range c.refresh {
					w.spread(r)
				}
				for i := 0; i < steps; i++ {
					w.step()
					w.check(t, fmt.Sprintf("%s/%v/%d ranks step %d", standard, mode, ranks, i))
				}
			}
		}
	}
}
