package memctrl

import (
	"math"

	"ropsim/internal/event"
)

// This file implements the controller's exact wake discipline: instead
// of re-arming a tick at now+1 whenever any work is pending (the
// original busy-polling, which burned an event per simulated cycle
// through every refresh freeze and timing stall), armNextWake computes
// the first cycle at which the controller could actually do anything —
// issue a command, or advance a refresh phase — and sleeps until then.
//
// The computation is exact, not a heuristic, which is what keeps the
// simulation bit-identical to per-cycle polling: between controller
// ticks the DRAM timing state is constant (it only advances when the
// controller issues commands) and the queues only change at enqueues
// (which arm an immediate tick of their own). So the first
// "interesting" cycle is a pure function of the state at arm time:
//   - per rank, the refresh state machine's next transition time
//     (refreshWake): due boundaries, drain/fill deadlines, the closing
//     sequence's next legal PRE/REF, and the freeze end;
//   - per queue, the earliest legal issue cycle over the per-bank
//     pending lists (queueWake), via dram.Device.NextReadyCycle;
//   - under the closed-page ablation, the earliest legal idle-row PRE
//     (closePageWake).
// Conditions that the original code re-evaluated one cycle later by
// construction (queue-emptiness phase transitions, and the write-drain
// hysteresis when its one-step update does not reach a fixed point)
// return now+1, reproducing the polling cadence exactly where it is
// semantically observable.

// cycleNever is the "no wake needed" sentinel, beyond any simulated
// time.
const cycleNever = event.Cycle(math.MaxInt64)

// armAfterTick schedules the controller's next wake from the post-tick
// state, reproducing the arming decision of the original per-cycle
// loop. While work remains (a command issued this tick, or any queue or
// refresh phase is active) the loop chained a tick at now+1; here the
// sleep jumps to the first cycle that can act, armed as a chained wake
// so its queue position matches the per-cycle chain it replaces. Once
// idle, the arming is the loop's own: the pending closed-page PRE
// retry if one exists, else the next refresh due time, as plain wakes.
func (c *Controller) armAfterTick(now event.Cycle, issued bool) {
	idle := c.Idle()
	if issued || !idle {
		if idle {
			// This tick's command drained the last pending work: the
			// polling chain runs one final no-op tick at now+1 whose idle
			// arming fixes the far wake's queue position. Run that tick
			// for real rather than sleeping past it.
			c.ensureWake(now + 1)
			return
		}
		next := c.nextWake(now)
		if next <= now || next == cycleNever {
			next = now + 1
		}
		c.armChained(next)
		return
	}
	if c.cfg.ClosedPage {
		if retry := c.closePageWake(now); retry < cycleNever {
			c.ensureWake(retry)
			return
		}
	}
	if next, ok := c.nextRefreshDue(); ok {
		c.ensureWake(next)
	}
}

// armChained arms the next tick at cycle at as a chained wake (see
// event.Queue.ScheduleChained), recording the handle so an enqueue
// during the sleep can pull the wake forward via ensureWake.
func (c *Controller) armChained(at event.Cycle) {
	if c.wakeAt >= 0 && c.wakeAt <= at {
		return
	}
	if debugWake != nil {
		debugWake("arm", c.q.Now(), at, int(c.wakeAt))
	}
	c.wakeChained = true
	c.wakeArmedAt = c.q.Now()
	c.wakeAt = at
	c.wakeChain = c.q.ScheduleChained(at, c.tickFn)
}

// nextWake computes the next interesting cycle without arming it.
func (c *Controller) nextWake(now event.Cycle) event.Cycle {
	next := cycleNever
	for r := range c.refresh {
		next = min(next, c.refreshWake(r, now))
	}
	next = min(next, c.scheduleWake(now))
	if c.cfg.ClosedPage {
		next = min(next, c.closePageWake(now))
	}
	return next
}

// refreshWake reports the next cycle rank r's refresh state machine
// can make progress. Deadline-driven phases wake at their deadline;
// phases gated on queue emptiness wake at now+1 once the condition
// holds (the original per-cycle loop acted on it one tick after the
// issuing tick, because refreshStep runs before scheduleStep).
func (c *Controller) refreshWake(r int, now event.Cycle) event.Cycle {
	rr := &c.refresh[r]
	switch rr.phase {
	case refIdle:
		return c.order.startWake(c, r, now)
	case refDraining:
		if !c.readIdx.unitHas(r, rr.target) {
			return now + 1
		}
		return rr.drainDeadline
	case refFilling:
		if !c.hasFills(r) {
			return now + 1
		}
		return rr.deadline
	case refPaused:
		if !c.mustPause(r, now) {
			return now + 1
		}
		return c.pauseForcedAt(r) // forced resume
	case refClosing:
		return c.closingWake(r, now)
	case refRefreshing:
		return rr.refEnd
	}
	return cycleNever
}

// nextRefreshDue reports the earliest cycle any rank's refresh machine
// wants attention, for a controller with every rank idle: the
// orderings' start wakes.
func (c *Controller) nextRefreshDue() (event.Cycle, bool) {
	next := cycleNever
	for r := range c.refresh {
		next = min(next, c.refreshWake(r, c.q.Now()))
	}
	return next, next < cycleNever
}

// startWake for the in-order family is the next boundary.
func (inOrder) startWake(c *Controller, r int, _ event.Cycle) event.Cycle {
	return c.refresh[r].due
}

// startWake for elastic refresh is now+1 while an owed refresh can
// issue in this idle gap, else the next boundary.
func (elastic) startWake(c *Controller, r int, now event.Cycle) event.Cycle {
	if elasticIssues(c, r) {
		return now + 1
	}
	return c.refresh[r].due
}

// startWake for out-of-order refresh is now+1 when a unit is pickable
// right now (refreshStep runs the pick on its next tick), else the
// earliest upcoming unit-schedule boundary — the first cycle a refresh
// becomes owed (possibly forcing an issue) or a pull-in credit decays
// (freeing room for another pull-in), either of which can change the
// pick. The pick's backlog tally caches that boundary (see
// rankRefresh.tally). Queue changes that unblock a pick between
// boundaries arm immediate ticks of their own.
func (o outOfOrder) startWake(c *Controller, r int, now event.Cycle) event.Cycle {
	if u, _ := o.pick(c, r, now); u >= 0 {
		return now + 1
	}
	return c.refresh[r].tallyNext
}

// closingWake reports when the closing walk (closeStep) can issue its
// next command: the first conflicting open row's legal PRE, or — once
// the target is quiet — its legal refresh command.
func (c *Controller) closingWake(r int, now event.Cycle) event.Cycle {
	rr := &c.refresh[r]
	if b := c.conflictingBank(r, rr); b >= 0 {
		return c.dev.EarliestPRE(now+1, r, b)
	}
	return c.earliestREF(now+1, r, rr)
}

// nextDrainState applies one per-cycle update of the write-drain
// hysteresis (Config.WriteHigh/WriteLow watermarks, plus the idle-read
// trigger) to d and returns the new state. scheduleStep and
// scheduleWake share it so the wake computation tracks the issue path
// exactly.
func (c *Controller) nextDrainState(d bool) bool {
	if d {
		return c.writeIdx.n > c.cfg.WriteLow
	}
	return c.writeIdx.n >= c.cfg.WriteHigh ||
		(c.readIdx.n == 0 && c.fillIdx.n == 0 && c.writeIdx.n > 0)
}

// scheduleWake reports the earliest cycle scheduleStep could issue a
// command, given the queues and the write-drain hysteresis state.
func (c *Controller) scheduleWake(now event.Cycle) event.Cycle {
	if c.readIdx.n == 0 && c.writeIdx.n == 0 && c.fillIdx.n == 0 {
		return cycleNever
	}
	// The drain flag updates once per tick. If one update step is not a
	// fixed point (the flag would oscillate under per-cycle polling,
	// issuing a write every other cycle), fall back to ticking every
	// cycle — that cadence is observable in the command stream.
	f1 := c.nextDrainState(c.draining)
	if f1 != c.nextDrainState(f1) {
		return now + 1
	}
	t := c.queueWake(&c.readIdx, now, false, true)
	if c.fillIdx.n > 0 {
		t = min(t, c.queueWake(&c.fillIdx, now, false, false))
	}
	if f1 {
		t = min(t, c.queueWake(&c.writeIdx, now, true, true))
	}
	return t
}

// queueWake reports the earliest cycle any request in the queue ix
// could issue its next command (column access, PRE, or ACT), or
// cycleNever when nothing is pending. demand applies the refresh
// blocking rules that issueFrom applies to non-prefetch traffic; banks
// skipped here (a quiescing rank or refresh unit) are re-armed by the
// tick that advances the refresh phase. It walks only the active set,
// and one representative per class suffices: all row hits of a bank
// share the column timing, all misses the PRE timing, and a precharged
// bank's ACT timing is row-independent except under subarray refresh
// locks.
func (c *Controller) queueWake(ix *bankIndex, now event.Cycle, isWrite, demand bool) event.Cycle {
	t := cycleNever
	base := now + 1
	perRow := c.gran.subarrays()
	for _, s := range ix.active {
		r, b := ix.rankBank(s)
		if skip := c.closingUnit(r, demand); skip == allUnits || skip >= 0 && c.unitOf[b] == skip {
			continue
		}
		open := c.dev.OpenRow(r, b)
		if open < 0 && perRow {
			for _, req := range ix.lists[s] {
				t = min(t, c.dev.EarliestACTRow(base, r, b, req.loc.Row))
			}
		} else {
			hit, miss := ix.classes(s, open)
			if hit != nil {
				t = min(t, c.dev.NextReadyCycle(base, r, b, hit.loc.Row, isWrite))
			}
			if miss != nil {
				t = min(t, c.dev.NextReadyCycle(base, r, b, miss.loc.Row, isWrite))
			}
		}
		if t == base {
			return t
		}
	}
	return t
}

// closePageWake reports the earliest legal PRE over open banks whose
// row no queued request wants (the closed-page policy's work), or
// cycleNever when every open row is wanted.
func (c *Controller) closePageWake(now event.Cycle) event.Cycle {
	t := cycleNever
	for r := 0; r < c.geo.Ranks; r++ {
		for b := 0; b < c.geo.Banks; b++ {
			open := c.dev.OpenRow(r, b)
			if open < 0 || c.rowWanted(r, b, open) {
				continue
			}
			t = min(t, c.dev.EarliestPRE(now+1, r, b))
		}
	}
	return t
}
