package memctrl

import (
	"cmp"
	"fmt"
	"slices"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// The refresh machine is composed from three parts, one per axis of the
// policy space (the preset table in controller.go picks one of each per
// Mode):
//   - granularity: what one refresh command covers (rank, slot, or one
//     subarray of a bank or of a slot), which command form it takes,
//     and which demand it blocks while the target quiesces;
//   - ordering: when the next refresh issues and to which unit
//     (in-order, elastic, pausing, out-of-order);
//   - ROP prefetch: on or off — whether a due refresh first drains the
//     target's reads and stages predicted lines in the SRAM buffer.
// Each part's "act now" lives here; its "next wake" lives in wake.go.

// refPhase is the per-rank refresh state.
type refPhase int

const (
	// refIdle: no refresh activity; the ordering decides when the next
	// refresh begins.
	refIdle refPhase = iota
	// refDraining (ROP only): demand reads to the target are drained
	// before it freezes (paper §IV-D).
	refDraining
	// refFilling (ROP only): predicted lines are fetched into the SRAM
	// buffer. Candidates are generated at the drain/fill boundary so
	// they reflect the stream position right before the freeze.
	refFilling
	// refPaused (pausing ordering): a partially-completed refresh waits
	// for the rank's pending reads to drain before its next segment.
	refPaused
	// refClosing: the target's conflicting open rows are being
	// precharged so the refresh command can issue.
	refClosing
	// refRefreshing: the refresh command issued; the target is locked
	// until refEnd.
	refRefreshing
)

// drainFracREFI bounds the drain phase as a fraction of tREFI; the fill
// phase is bounded by Config.MaxRefreshDelay overall.
const drainFracREFI = 0.03

// maxElasticBacklog is the JEDEC limit on outstanding postponed
// refreshes (the elastic and out-of-order orderings).
const maxElasticBacklog = 8

// maxPullInAhead is the JEDEC limit on refreshes issued ahead of
// schedule (the pull-in half of the 8×tREFI elasticity window the
// out-of-order ordering exploits).
const maxPullInAhead = 8

// pauseSegments is how many pausable segments one refresh divides into
// (pausing ordering), and pauseResumeOverhead the extra cycles each
// resumed segment costs for re-locking.
const (
	pauseSegments       = 8
	pauseResumeOverhead = 4
)

// rankRefresh tracks one rank's refresh progress.
type rankRefresh struct {
	phase refPhase
	// target is the refresh unit (an index into Controller.units) the
	// next or in-flight refresh covers.
	target int
	// unitSA (subarray granularities) is each unit's rotating subarray
	// counter. Kept per unit so unit rotation and subarray rotation
	// cannot alias when the unit count divides Subarrays evenly.
	unitSA []int
	due    event.Cycle // scheduled boundary of the next refresh
	refEnd event.Cycle // unlock time of the in-flight refresh

	// backlog counts refreshes owed but postponed (elastic).
	backlog int
	// segDone counts completed segments of the in-flight refresh
	// (pausing); it is zero whenever no segmented refresh is in flight.
	segDone int
	// unitDue (out-of-order) is each unit's own schedule: the tREFI
	// boundary its next refresh is nominally due at. due then holds the
	// earliest of them.
	unitDue []event.Cycle
	// pullIn marks the pending issue as a pull-in (out-of-order: the
	// picked unit's schedule is still in the future).
	pullIn bool
	// owed and ahead (out-of-order) cache oooBacklog's tally of unitDue.
	// It holds for every cycle before tallyNext, the earliest unit
	// boundary after the cycle it was counted at; tallyNext 0 means
	// unitDue moved since.
	owed, ahead int
	tallyNext   event.Cycle

	drainDeadline event.Cycle // ROP: drain must finish by here
	deadline      event.Cycle // ROP: fills must finish by here
	fillStart     event.Cycle // ROP: when the fill phase began
	wantPrefetch  bool        // ROP: the engine's gate decision for this refresh
}

// refreshStep advances every rank's refresh state machine and issues at
// most one command (PRE or a refresh). It reports whether a command was
// issued this cycle.
func (c *Controller) refreshStep(now event.Cycle) bool {
	for r := range c.refresh {
		rr := &c.refresh[r]
		for progress := true; progress; {
			progress = false
			switch rr.phase {
			case refIdle:
				progress = c.order.start(c, r, now)
			case refDraining:
				if now >= rr.drainDeadline || !c.readIdx.unitHas(r, rr.target) {
					c.startFills(r, now)
					progress = true
				}
			case refFilling:
				if now >= rr.deadline || !c.hasFills(r) {
					c.FillPhaseCycles.Observe(float64(now - rr.fillStart))
					c.dropFills(r)
					rr.phase = refClosing
					progress = true
				}
			case refClosing:
				if c.closeStep(r, now) {
					return true
				}
			case refPaused:
				if !c.mustPause(r, now) {
					rr.phase = refClosing
					progress = true
				}
			case refRefreshing:
				if now < rr.refEnd {
					break
				}
				progress = true
				if rr.segDone > 0 && rr.segDone < pauseSegments {
					// A segmented refresh has segments left: pause for the
					// rank's reads, or push on.
					rr.phase = refClosing
					if c.mustPause(r, now) {
						rr.phase = refPaused
					}
					break
				}
				rr.segDone = 0
				rr.phase = refIdle
				if c.rop != nil {
					c.rop.OnRefreshEnd(r, now)
				}
			}
		}
	}
	return false
}

// beginRefresh starts rank r's refresh of its target unit once the
// ordering decides it is time: with ROP prefetch on it consults the
// engine and starts the drain phase, otherwise it proceeds straight to
// closing the target.
func (c *Controller) beginRefresh(r int, now event.Cycle) {
	rr := &c.refresh[r]
	if c.rop == nil {
		rr.phase = refClosing
		return
	}
	dec := c.rop.OnRefreshStart(r, now)
	rr.wantPrefetch = dec.Prefetch
	// Load-aware throttle: when the shared channel is bandwidth-bound
	// (deep read queue), prefetch fills cannot add throughput — every
	// mispredicted fill is pure bus waste — so the launch is skipped.
	// The drain optimization still applies.
	if c.window.rankWide && c.readIdx.n >= c.cfg.ReadQueueCap/4 {
		rr.wantPrefetch = false
		c.PrefetchThrottled.Inc()
	}
	rr.drainDeadline = now + c.window.drain
	rr.deadline = now + c.window.fill
	rr.phase = refDraining
}

// closeStep is the closing walk every granularity shares: it precharges
// the first conflicting open row of the target unit (one per tick) and,
// once none is left, issues the refresh through the ordering. It
// reports whether a command was issued.
func (c *Controller) closeStep(r int, now event.Cycle) bool {
	rr := &c.refresh[r]
	if b := c.conflictingBank(r, rr); b >= 0 {
		if c.dev.EarliestPRE(now, r, b) != now {
			return false // a conflicting row is open but PRE is not yet legal: wait
		}
		c.dev.IssuePRE(now, r, b)
		c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: r, Bank: b})
		return true
	}
	if c.earliestREF(now, r, rr) != now {
		return false
	}
	unit := rr.target
	rr.refEnd = c.order.refresh(c, r, now)
	rr.phase = refRefreshing
	// Reads still queued for the frozen unit ride out the freeze unless
	// the SRAM buffer can serve them right now.
	if c.rop != nil {
		c.probeQueuedReads(r, unit, now)
	}
	return true
}

// conflictingBank reports the first bank of rank r's target unit whose
// open row must close before the refresh (any open row, or under the
// subarray granularities only a row inside the target subarray), or -1.
func (c *Controller) conflictingBank(r int, rr *rankRefresh) int {
	sa := rr.targetSA()
	for _, b := range c.units[rr.target] {
		if open := c.dev.OpenRow(r, b); open >= 0 && (sa < 0 || c.dev.SubarrayOf(int(open)) == sa) {
			return b
		}
	}
	return -1
}

// hasDemandReads reports whether any queued demand read targets rank
// (an O(1) read of the bank index's per-rank count).
func (c *Controller) hasDemandReads(rank int) bool {
	return c.readIdx.rankN[rank] > 0
}

// hasFills reports whether any prefetch fill for rank is still pending.
func (c *Controller) hasFills(rank int) bool {
	return c.fillIdx.rankN[rank] > 0
}

// granularity is the refresh part that decides what one refresh
// command covers, which command form it takes, and which demand waits
// while its target quiesces.
type granularity int

const (
	// granRank refreshes every bank of the rank with one REF (tRFC).
	granRank granularity = iota
	// granSlot refreshes one refresh slot's bank set for tRFCpb: a
	// single bank under per-bank refresh, one bank per group under DDR5
	// same-bank refresh. Sibling banks keep serving.
	granSlot
	// granBankSubarray refreshes one subarray of one bank (REFsa,
	// tRFCsa), walking a bank's subarrays before moving to the next bank.
	granBankSubarray
	// granSlotSubarray confines a slot's tRFCpb refresh to one subarray
	// of each of its banks (SARP); slots rotate, each with its own
	// subarray counter.
	granSlotSubarray
)

var granNames = [...]string{"rank", "slot", "subarray-in-bank", "subarray-in-slot"}

// String names the granularity as docs/POLICIES.md does.
func (g granularity) String() string { return granNames[g] }

// check reports timing the granularity needs but p lacks.
func (g granularity) check(p dram.Params) error {
	switch {
	case g == granSlot && p.RFCpb <= 0:
		return fmt.Errorf("memctrl: bank-refresh mode requires RFCpb timing")
	case g == granBankSubarray && (p.RFCsa <= 0 || p.Subarrays <= 0):
		return fmt.Errorf("memctrl: subarray-refresh mode requires RFCsa/Subarrays timing")
	case g == granSlotSubarray && (p.RFCpb <= 0 || p.Subarrays <= 0):
		return fmt.Errorf("memctrl: SARP requires RFCpb/Subarrays timing")
	}
	return nil
}

// units lists the banks each refresh unit covers, in rotation order.
func (g granularity) units(dev *dram.Device) [][]int {
	n := dev.Geometry().Banks
	var us [][]int
	switch g {
	case granRank:
		all := make([]int, n)
		for b := range all {
			all[b] = b
		}
		us = [][]int{all}
	case granBankSubarray:
		for b := 0; b < n; b++ {
			us = append(us, []int{b})
		}
	default:
		for s := 0; s < dev.RefreshSlots(); s++ {
			us = append(us, dev.SlotBanks(s))
		}
	}
	return us
}

// cadence is the in-order spacing of refresh commands: tREFI spread
// over the commands one full round takes.
func (g granularity) cadence(dev *dram.Device) event.Cycle {
	p := dev.Params()
	switch g {
	case granRank:
		return p.REFI
	case granBankSubarray:
		return max(p.REFI/event.Cycle(dev.Geometry().Banks*p.Subarrays), 1)
	}
	return p.REFI / event.Cycle(dev.RefreshSlots())
}

// lock is how long one refresh command locks what it covers.
func (g granularity) lock(p dram.Params) event.Cycle {
	switch g {
	case granRank:
		return p.RFC
	case granBankSubarray:
		return p.RFCsa
	}
	return p.RFCpb
}

// subarrays reports whether a command refreshes one subarray only: only
// rows of that subarray conflict, and ACT legality is per row.
func (g granularity) subarrays() bool { return g == granBankSubarray || g == granSlotSubarray }

// locksBanks reports whether a command locks whole banks one by one,
// so a bank's own lock (not the rank's) freezes demand to it.
func (g granularity) locksBanks() bool { return g == granSlot }

// quiescesRank reports whether demand to the whole rank waits while the
// target closes; otherwise only the target unit's banks wait.
func (g granularity) quiescesRank() bool { return g == granRank || g == granBankSubarray }

// targetSA reports the target unit's subarray, or -1 when the refresh
// covers whole banks.
func (rr *rankRefresh) targetSA() int {
	if rr.unitSA == nil {
		return -1
	}
	return rr.unitSA[rr.target]
}

// closingUnit reports which refresh unit of rank r demand must avoid
// because its refresh is quiescing it: -1 for none (always for prefetch
// fills), or allUnits when the granularity quiesces the whole rank. The
// scheduler asks once per rank, then compares unit indexes per bank.
func (c *Controller) closingUnit(r int, demand bool) int {
	if !demand || c.refresh == nil || c.refresh[r].phase != refClosing {
		return -1
	}
	if c.gran.quiescesRank() {
		return allUnits
	}
	return c.refresh[r].target
}

// allUnits is closingUnit's "the whole rank" answer.
const allUnits = -2

// earliestREF reports the first cycle ≥ now at which the target unit's
// refresh command is legal.
func (c *Controller) earliestREF(now event.Cycle, r int, rr *rankRefresh) event.Cycle {
	switch c.gran {
	case granRank:
		return c.dev.EarliestREF(now, r)
	case granSlot:
		return c.dev.EarliestREFSlot(now, r, rr.target)
	case granBankSubarray:
		return c.dev.EarliestREFsa(now, r, rr.target, rr.targetSA())
	}
	return c.dev.EarliestREFpbSub(now, r, rr.target, rr.targetSA())
}

// issueREF issues the target unit's refresh command, records it, and
// returns the unlock cycle. Per-bank forms emit one command per covered
// bank so the protocol sanitizer sees every locked bank.
func (c *Controller) issueREF(now event.Cycle, r int, rr *rankRefresh) event.Cycle {
	var end event.Cycle
	kind, sa := dram.CmdREFsa, rr.targetSA()
	switch c.gran {
	case granRank:
		end, kind = c.dev.IssueREF(now, r), dram.CmdREF
	case granSlot:
		end, kind = c.dev.IssueREFSlot(now, r, rr.target), dram.CmdREFpb
	case granBankSubarray:
		end = c.dev.IssueREFsa(now, r, rr.target, sa)
	case granSlotSubarray:
		end = c.dev.IssueREFpbSub(now, r, rr.target, sa)
	}
	if c.capture != nil {
		c.capture.Refresh(now, r)
	}
	if kind == dram.CmdREF {
		c.emit(dram.Command{Kind: kind, At: now, Rank: r})
	} else {
		for _, b := range c.units[rr.target] {
			c.emit(dram.Command{Kind: kind, At: now, Rank: r, Bank: b, Sub: max(sa, 0)})
		}
	}
	c.RefreshesIssued.Inc()
	return end
}

// advance rotates the target after an in-order refresh. Under
// subarray-in-bank a bank's subarrays all refresh before the next
// bank's; otherwise the next unit follows, and under subarray-in-slot
// the refreshed unit's own counter moves to its next subarray.
func (c *Controller) advance(rr *rankRefresh) {
	if rr.unitSA != nil {
		sa := (rr.unitSA[rr.target] + 1) % c.p.Subarrays
		rr.unitSA[rr.target] = sa
		if c.gran == granBankSubarray && sa != 0 {
			return
		}
	}
	rr.target = (rr.target + 1) % len(c.units)
}

// ordering is the refresh part that decides when a refresh issues and
// which unit it covers, and books each issue against the schedule.
type ordering interface {
	// schedule sets an idle rank's first refresh boundary.
	schedule(c *Controller, rr *rankRefresh, first event.Cycle)
	// start acts on an idle rank: it reports whether the rank's refresh
	// machine advanced (a refresh began, or its schedule moved).
	start(c *Controller, r int, now event.Cycle) bool
	// startWake reports the next cycle start can act on an idle rank.
	startWake(c *Controller, r int, now event.Cycle) event.Cycle
	// refresh issues the target's refresh and books it; it returns the
	// unlock cycle.
	refresh(c *Controller, r int, now event.Cycle) event.Cycle
	fmt.Stringer
}

// inOrder refreshes the units round-robin, each when its boundary
// comes (JEDEC auto-refresh).
type inOrder struct{}

func (inOrder) String() string { return "in-order" }

func (inOrder) schedule(_ *Controller, rr *rankRefresh, first event.Cycle) { rr.due = first }

func (inOrder) start(c *Controller, r int, now event.Cycle) bool {
	if now < c.refresh[r].due {
		return false
	}
	c.beginRefresh(r, now)
	return true
}

func (inOrder) refresh(c *Controller, r int, now event.Cycle) event.Cycle {
	rr := &c.refresh[r]
	end := c.issueREF(now, r, rr)
	c.RefreshPostponedCycles.Observe(float64(now - rr.due))
	rr.due += c.cadence
	c.advance(rr)
	return end
}

// elastic is Elastic Refresh (Stuecheli et al., MICRO'10): a due
// refresh is owed rather than issued, and owed refreshes issue in idle
// gaps (no reads pending for the rank) or once the JEDEC backlog limit
// forces them.
type elastic struct{ inOrder }

func (elastic) String() string { return "elastic" }

func (elastic) start(c *Controller, r int, now event.Cycle) bool {
	rr := &c.refresh[r]
	progress := false
	if now >= rr.due {
		rr.backlog++
		rr.due += c.cadence
		progress = true
	}
	if elasticIssues(c, r) {
		c.beginRefresh(r, now)
		progress = true
	}
	return progress
}

// elasticIssues reports whether rank r's owed refreshes may issue now.
func elasticIssues(c *Controller, r int) bool {
	rr := &c.refresh[r]
	return rr.backlog > 0 && (rr.backlog >= maxElasticBacklog || !c.hasDemandReads(r))
}

func (elastic) refresh(c *Controller, r int, now event.Cycle) event.Cycle {
	rr := &c.refresh[r]
	end := c.issueREF(now, r, rr)
	// due already advanced when the refresh became owed; the
	// postponement is how far behind schedule this issue is.
	rr.backlog--
	behind := now - (rr.due - c.cadence*event.Cycle(rr.backlog+1))
	c.RefreshPostponedCycles.Observe(float64(behind))
	c.advance(rr)
	return end
}

// pausing is Refresh Pausing (Nair et al., HPCA'13): each whole-rank
// refresh runs as pauseSegments segments of tRFC/pauseSegments, and
// pauses between segments while the rank has reads pending (each resume
// costs pauseResumeOverhead to re-lock).
type pausing struct{ inOrder }

func (pausing) String() string { return "pausing" }

func (pausing) refresh(c *Controller, r int, now event.Cycle) event.Cycle {
	rr := &c.refresh[r]
	rfc := c.p.RFC
	dur := rfc / pauseSegments
	if rr.segDone > 0 {
		dur += pauseResumeOverhead
	}
	if rr.segDone == pauseSegments-1 {
		dur += rfc % pauseSegments // remainder sticks to the last segment
	}
	end := c.dev.IssueREFSegment(now, r, dur)
	rr.segDone++
	if rr.segDone == pauseSegments {
		// The logical refresh completes, and the schedule advances, with
		// its last segment.
		if c.capture != nil {
			c.capture.Refresh(now, r)
		}
		c.RefreshesIssued.Inc()
		c.RefreshPostponedCycles.Observe(float64(end - rr.due))
		rr.due += c.cadence
		c.advance(rr)
	}
	return end
}

// mustPause reports whether a segmented refresh should stay paused at
// now: the rank still has reads pending and the remaining segments
// still fit before the next boundary (see pauseForcedAt).
func (c *Controller) mustPause(r int, now event.Cycle) bool {
	return c.hasDemandReads(r) && now < c.pauseForcedAt(r)
}

// pauseForcedAt is the first cycle a paused refresh must push through:
// from then on its remaining segments (with closing slack) no longer fit
// before the in-flight refresh's successor is due.
func (c *Controller) pauseForcedAt(r int) event.Cycle {
	rr := &c.refresh[r]
	segLen := c.p.RFC / pauseSegments
	remaining := event.Cycle(pauseSegments-rr.segDone) * (segLen + pauseResumeOverhead + 20)
	return rr.due + c.cadence - remaining
}

// outOfOrder is out-of-order per-unit refresh (Chang et al. HPCA'14
// §4.2): each unit keeps its own schedule, and the idle unit with the
// earliest schedule refreshes — retiring owed work early, or pulling
// future refreshes in (up to maxPullInAhead of credit) — until the rank
// owes maxElasticBacklog refreshes, when the most overdue unit is
// forced. With drainAware set (DARP) a unit counts as idle during a
// write-drain batch when it has no pending writes, so refreshes hide
// under the drain (write-refresh parallelization).
type outOfOrder struct{ drainAware bool }

func (o outOfOrder) String() string {
	if o.drainAware {
		return "drain-aware out-of-order"
	}
	return "out-of-order"
}

func (outOfOrder) schedule(c *Controller, rr *rankRefresh, first event.Cycle) {
	// The in-order schedule would visit unit u one cadence after unit
	// u-1, each unit recurring every tREFI.
	rr.due = first
	rr.unitDue = make([]event.Cycle, len(c.units))
	for u := range rr.unitDue {
		rr.unitDue[u] = first + c.cadence*event.Cycle(u)
	}
}

func (o outOfOrder) start(c *Controller, r int, now event.Cycle) bool {
	u, pullIn := o.pick(c, r, now)
	if u < 0 {
		return false
	}
	rr := &c.refresh[r]
	rr.target, rr.pullIn = u, pullIn
	c.beginRefresh(r, now)
	return true
}

// pick chooses which unit (if any) rank r should refresh at now. It
// returns the unit and whether the issue is a pull-in, or -1. Every
// candidate test only rules a unit out, so their order does not change
// the pick; the queue probe (idle) goes last.
func (o outOfOrder) pick(c *Controller, r int, now event.Cycle) (unit int, pullIn bool) {
	due := c.refresh[r].unitDue
	owed, ahead := oooBacklog(c, r, now)
	if owed == 0 && ahead >= maxPullInAhead {
		return -1, false // nothing owed, and no credit for a pull-in
	}
	forced := owed >= maxElasticBacklog
	owedOnly := forced || ahead >= maxPullInAhead
	best := -1
	for u, d := range due {
		switch {
		case d > now && owedOnly:
			continue // forced (only owed units compete, idle or not), or pull-in credit exhausted
		case best >= 0 && d >= due[best]:
			continue // cannot beat the best so far (a tie keeps the earlier unit)
		case !forced && !o.idle(c, r, u):
			continue
		}
		best = u
	}
	if best < 0 {
		return -1, false
	}
	return best, due[best] > now
}

// idle reports whether unit u's banks have no queued demand of the kind
// the scheduler is serving: reads normally, writes during a drain batch
// when drain-aware.
func (o outOfOrder) idle(c *Controller, r, u int) bool {
	if o.drainAware && c.draining {
		return !c.writeIdx.unitHas(r, u)
	}
	return !c.readIdx.unitHas(r, u)
}

// oooBacklog reports rank r's out-of-order refresh position at now:
// owed counts refreshes whose unit boundary has passed without an
// issue, ahead counts refreshes issued before their boundary (pull-ins
// still in credit). It reads the rank's cached tally, recounting only
// once now reaches the next boundary or after an issue; now must not
// go backwards between calls.
func oooBacklog(c *Controller, r int, now event.Cycle) (owed, ahead int) {
	rr := &c.refresh[r]
	if now >= rr.tallyNext {
		rr.tally(c.p.REFI, now)
	}
	return rr.owed, rr.ahead
}

// tally counts rr's owed and ahead refreshes at now and the earliest
// boundary after now at which either count changes: for each unit, the
// first cycle its owed count grows by one, or its ahead count drops by
// one (its due boundary when only one tREFI ahead), which is the first
// cycle after now congruent to the unit's unitDue modulo refi.
func (rr *rankRefresh) tally(refi, now event.Cycle) {
	rr.owed, rr.ahead, rr.tallyNext = 0, 0, cycleNever
	for _, d := range rr.unitDue {
		var b event.Cycle
		if d <= now {
			k := (now - d) / refi
			rr.owed += int(k) + 1
			b = d + (k+1)*refi
		} else {
			k := (d - now - 1) / refi
			rr.ahead += int(k)
			b = d - k*refi
		}
		rr.tallyNext = min(rr.tallyNext, b)
	}
}

func (o outOfOrder) refresh(c *Controller, r int, now event.Cycle) event.Cycle {
	rr := &c.refresh[r]
	end := c.issueREF(now, r, rr)
	// The issue either retires an owed refresh (postponement is how far
	// past the unit's boundary it ran) or banks a pull-in.
	if rr.pullIn {
		c.RefreshPullIns.Inc()
	} else {
		c.RefreshPostponedCycles.Observe(float64(now - rr.unitDue[rr.target]))
	}
	if o.drainAware && c.draining {
		c.DrainPiggybacks.Inc()
	}
	rr.unitDue[rr.target] += c.p.REFI
	rr.pullIn = false
	rr.due = slices.Min(rr.unitDue)
	rr.tallyNext = 0 // the counts moved: recount at the next pick
	return end
}

// prefetchWindow is the ROP prefetch part's timing for one refresh: the
// drain and fill phases end these many cycles after the refresh turns
// due.
type prefetchWindow struct {
	drain, fill event.Cycle
	// rankWide (whole-rank refresh): candidates span the rank, and a
	// deep read queue throttles the launch.
	rankWide bool
}

// newPrefetchWindow sizes the prefetch phases for the granularity.
// Under unit-level refresh the drain takes a tenth and the fills half of
// the unit's cadence. Under whole-rank refresh the fill budget scales
// with the buffer and with how many ranks share the channel (each fill
// needs ~6 bus cycles of leftover bandwidth, and other ranks' demand
// traffic shrinks the leftover); MaxRefreshDelay still bounds the total
// postponement (JEDEC allows up to 8 tREFI), and the per-rank stagger
// keeps fill sessions of consecutive ranks from overlapping.
func newPrefetchWindow(cfg Config, g granularity, dev *dram.Device, units int) prefetchWindow {
	p, ranks := dev.Params(), dev.Geometry().Ranks
	if g != granRank {
		cadence := float64(p.REFI) / float64(units)
		return prefetchWindow{drain: event.FromFloat(0.1 * cadence), fill: event.FromFloat(0.5 * cadence)}
	}
	refi := float64(p.REFI)
	w := prefetchWindow{drain: event.FromFloat(drainFracREFI * refi), rankWide: true}
	//simlint:cycles "SRAM lines × ~6 bus cycles per fill (plus fixed slack), scaled by rank count: a bus-cycle budget by construction"
	budget := event.Cycle((6*cfg.ROP.SRAMLines + 200) * (ranks + 1) / 2)
	if stagger := p.REFI / event.Cycle(ranks); budget > stagger*3/4 {
		budget = stagger * 3 / 4
	}
	w.fill = min(w.drain+budget, event.FromFloat(cfg.MaxRefreshDelay*refi))
	return w
}

// startFills ends the drain phase: candidates for the target unit are
// generated from the table's current state and queued as prefetch
// fills.
func (c *Controller) startFills(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	rr.phase = refClosing
	if !rr.wantPrefetch {
		return
	}
	var locs []addr.Loc
	if c.window.rankWide {
		locs = c.rop.GenerateCandidates(rank)
	} else {
		for _, b := range c.units[rr.target] {
			locs = append(locs, c.rop.GenerateBankCandidates(rank, b)...)
		}
	}
	if len(locs) == 0 {
		return
	}
	// Close out the previous session's consumption accounting before
	// the buffer is claimed for this one.
	buf := c.rop.Buffer()
	if prev := buf.Owner(); prev >= 0 {
		inserted := int(buf.Inserted.Value() - c.sessionInsertedMark)
		c.rop.NoteSessionEnd(prev, inserted, inserted-buf.UsedCount())
	}
	if !buf.Acquire(rank) {
		return
	}
	c.sessionInsertedMark = buf.Inserted.Value()
	for _, loc := range locs {
		c.pushRequest(&c.fillIdx, &request{loc: loc, arrive: now, prefetch: true})
	}
	rr.fillStart = now
	rr.phase = refFilling
}

// dropFills abandons any prefetch fills for the rank that did not make
// the drain deadline; whatever was inserted into the buffer stays.
func (c *Controller) dropFills(rank int) {
	c.FillsDropped.Add(int64(c.fillIdx.clearRank(rank)))
}

// probeQueuedReads serves queued demand reads to the frozen unit of
// rank from the SRAM buffer where possible. The probes and serves are
// observable, so they run oldest first across the unit's banks.
func (c *Controller) probeQueuedReads(rank, unit int, now event.Cycle) {
	var queued []*request
	for _, b := range c.units[unit] {
		queued = append(queued, c.readIdx.list(rank, b)...)
	}
	slices.SortFunc(queued, func(a, b *request) int { return cmp.Compare(a.seq, b.seq) })
	served := false
	for _, req := range queued {
		if c.rop.ProbeRead(req.loc, now, true) {
			c.serveFromSRAM(req.arrive, now, req.done)
			c.readIdx.remove(req)
			served = true
		}
	}
	if served {
		c.notifySpace()
	}
}
