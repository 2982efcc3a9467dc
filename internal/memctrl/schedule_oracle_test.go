package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// This file keeps the full rank × bank FR-FCFS scan that issueFrom and
// queueWake replaced, as the reference they are checked against: the
// two-pass pick (row hits, then bank preparation) and the one-pass wake
// over every (rank, bank) list, with the per-request row compares.

// oraclePick is the two-pass FR-FCFS pick over every rank and bank.
func (c *Controller) oraclePick(ix *bankIndex, now event.Cycle, isWrite, demand bool) (*request, dram.CommandKind) {
	locks := demand && c.gran.locksBanks()
	// Pass 1: oldest row hit whose column command is legal now.
	var hit *request
	for r := 0; r < c.geo.Ranks; r++ {
		if ix.rankN[r] == 0 || c.dev.Refreshing(r, now) {
			continue
		}
		skip := c.closingUnit(r, demand)
		if skip == allUnits {
			continue
		}
		for b := 0; b < c.geo.Banks; b++ {
			l := ix.list(r, b)
			if len(l) == 0 || skip >= 0 && c.unitOf[b] == skip || locks && c.dev.BankRefreshing(r, b, now) {
				continue
			}
			open := c.dev.OpenRow(r, b)
			if open < 0 {
				continue
			}
			var cand *request
			for _, req := range l {
				if int64(req.loc.Row) == open {
					cand = req
					break
				}
			}
			if cand == nil || (hit != nil && cand.seq > hit.seq) {
				continue
			}
			if isWrite {
				if c.dev.EarliestWR(now, r, b) != now {
					continue
				}
			} else if c.dev.EarliestRD(now, r, b) != now {
				continue
			}
			hit = cand
		}
	}
	if hit != nil {
		if isWrite {
			return hit, dram.CmdWR
		}
		return hit, dram.CmdRD
	}
	// Pass 2: oldest request whose bank-preparation command (PRE for a
	// conflicting open row, ACT for a precharged bank) is legal now.
	var prep *request
	for r := 0; r < c.geo.Ranks; r++ {
		if ix.rankN[r] == 0 || c.dev.Refreshing(r, now) {
			continue
		}
		skip := c.closingUnit(r, demand)
		if skip == allUnits {
			continue
		}
		for b := 0; b < c.geo.Banks; b++ {
			l := ix.list(r, b)
			if len(l) == 0 || skip >= 0 && c.unitOf[b] == skip || locks && c.dev.BankRefreshing(r, b, now) {
				continue
			}
			open := c.dev.OpenRow(r, b)
			if open >= 0 {
				var cand *request
				for _, req := range l {
					if int64(req.loc.Row) != open {
						cand = req
						break
					}
				}
				if cand == nil || (prep != nil && cand.seq > prep.seq) {
					continue
				}
				if c.dev.EarliestPRE(now, r, b) == now {
					prep = cand
				}
				continue
			}
			if c.dev.EarliestACT(now, r, b) != now {
				continue
			}
			for _, req := range l {
				if prep != nil && req.seq > prep.seq {
					break
				}
				if c.dev.EarliestACTRow(now, r, b, req.loc.Row) == now {
					prep = req
					break
				}
			}
		}
	}
	if prep == nil {
		return nil, dram.CmdACT
	}
	if c.dev.OpenRow(prep.loc.Rank, prep.loc.Bank) >= 0 {
		return prep, dram.CmdPRE
	}
	return prep, dram.CmdACT
}

// oracleQueueWake is the full-scan queueWake.
func (c *Controller) oracleQueueWake(ix *bankIndex, now event.Cycle, isWrite, demand bool) event.Cycle {
	t := cycleNever
	base := now + 1
	perRow := c.gran.subarrays()
	for r := 0; r < c.geo.Ranks; r++ {
		if ix.rankN[r] == 0 {
			continue
		}
		skip := c.closingUnit(r, demand)
		if skip == allUnits {
			continue
		}
		for b := 0; b < c.geo.Banks; b++ {
			l := ix.list(r, b)
			if len(l) == 0 || skip >= 0 && c.unitOf[b] == skip {
				continue
			}
			if open := c.dev.OpenRow(r, b); open >= 0 {
				seenHit, seenMiss := false, false
				for _, req := range l {
					hit := int64(req.loc.Row) == open
					if (hit && !seenHit) || (!hit && !seenMiss) {
						t = min(t, c.dev.NextReadyCycle(base, r, b, req.loc.Row, isWrite))
					}
					seenHit = seenHit || hit
					seenMiss = seenMiss || !hit
					if seenHit && seenMiss {
						break
					}
				}
			} else {
				for _, req := range l {
					t = min(t, c.dev.NextReadyCycle(base, r, b, req.loc.Row, isWrite))
					if !perRow {
						break
					}
				}
			}
			if t == base {
				return t
			}
		}
	}
	return t
}

// checkIndex verifies that ix's counts (in all, per rank and per
// refresh unit), active set and memos agree with its lists.
func checkIndex(ix *bankIndex, ranks int) error {
	n := 0
	active := 0
	for r := 0; r < ranks; r++ {
		rn := 0
		un := make([]int, ix.units)
		for b := 0; b < ix.banks; b++ {
			s := ix.slot(r, b)
			sl, l := &ix.slots[s], ix.lists[s]
			for i, req := range l {
				if req.loc.Rank != r || req.loc.Bank != b {
					return fmt.Errorf("slot %d holds a request for rank %d bank %d", s, req.loc.Rank, req.loc.Bank)
				}
				if i > 0 && l[i-1].seq >= req.seq {
					return fmt.Errorf("slot %d list not in seq order", s)
				}
			}
			rn += len(l)
			un[ix.unitOf[b]] += len(l)
			if len(l) > 0 {
				active++
				if sl.pos < 0 || int(sl.pos) >= len(ix.active) || ix.active[sl.pos] != s {
					return fmt.Errorf("slot %d: pos %d does not point at it in the active set", s, sl.pos)
				}
			}
			if m := sl.memo; m.valid {
				var hit, miss *request
				for _, req := range l {
					if int64(req.loc.Row) == m.row {
						if hit == nil {
							hit = req
						}
					} else if miss == nil {
						miss = req
					}
				}
				if hit != m.hit || miss != m.miss {
					return fmt.Errorf("slot %d: stale memo for row %d", s, m.row)
				}
			}
		}
		if rn != ix.rankN[r] {
			return fmt.Errorf("rank %d: rankN %d, lists hold %d", r, ix.rankN[r], rn)
		}
		for u, want := range un {
			if got := ix.unitN[r*ix.units+u]; got != want || ix.unitHas(r, u) != (want > 0) {
				return fmt.Errorf("rank %d unit %d: unitN %d, lists hold %d", r, u, got, want)
			}
		}
		n += rn
	}
	if n != ix.n {
		return fmt.Errorf("n %d, lists hold %d", ix.n, n)
	}
	if active != len(ix.active) {
		return fmt.Errorf("active set has %d slots, %d lists are non-empty", len(ix.active), active)
	}
	return nil
}

// oracleCase is one device shape the randomized oracle test covers.
type oracleCase struct {
	standard string
	banks    int
}

var oracleCases = []oracleCase{
	{"DDR4-1600", 8},
	{"DDR4-1600", 16},
	{"LPDDR4-3200", 8},
	{"DDR5-4800", 16},
	{"DDR5-4800", 32},
}

// newOracleController builds a controller for mode on the case's
// standard with the given rank count, or nil when the standard lacks
// the mode's refresh timing.
func newOracleController(t *testing.T, oc oracleCase, ranks int, mode Mode) *Controller {
	t.Helper()
	std, err := dram.Lookup(oc.standard)
	if err != nil {
		t.Fatal(err)
	}
	p, err := std.Params(dram.Refresh1x)
	if err != nil {
		t.Fatal(err)
	}
	if mode == ModeNoRefresh {
		p = dram.NoRefresh(p)
	}
	geo := addr.Geometry{Channels: 1, Ranks: ranks, Banks: oc.banks, Rows: 512, ColumnLines: 64}
	c, err := New(DefaultConfig(mode), dram.NewDevice(p, geo), &event.Queue{})
	if err != nil {
		return nil
	}
	return c
}

// oracleWorld drives random legal device commands, queue changes and
// refresh phases into one controller.
type oracleWorld struct {
	c   *Controller
	rng *rand.Rand
	now event.Cycle
}

// oracleRows spans several subarrays (64 rows each at 512 rows, 8
// subarrays) with repeats, so banks see hits, misses and locked rows.
var oracleRows = []int{0, 1, 2, 70, 71, 200, 450, 511}

func (w *oracleWorld) randLoc() addr.Loc {
	g := w.c.geo
	return addr.Loc{
		Rank: w.rng.Intn(g.Ranks),
		Bank: w.rng.Intn(g.Banks),
		Row:  oracleRows[w.rng.Intn(len(oracleRows))],
		Col:  w.rng.Intn(g.ColumnLines),
	}
}

// oracleQueue is one queue with the arguments the scheduler passes
// for it.
type oracleQueue struct {
	ix              *bankIndex
	isWrite, demand bool
}

// queues lists the controller's three queues.
func (w *oracleWorld) queues() []oracleQueue {
	c := w.c
	return []oracleQueue{
		{&c.readIdx, false, true},
		{&c.writeIdx, true, true},
		{&c.fillIdx, false, false},
	}
}

// at advances now to t (never backwards) and returns it.
func (w *oracleWorld) at(t event.Cycle) event.Cycle {
	w.now = max(w.now, t)
	return w.now
}

// closeBanks precharges every open bank of rank r among banks whose
// open row satisfies conflict.
func (w *oracleWorld) closeBanks(r int, banks []int, conflict func(row int64) bool) {
	dev := w.c.dev
	for _, b := range banks {
		if open := dev.OpenRow(r, b); open >= 0 && conflict(open) {
			dev.IssuePRE(w.at(dev.EarliestPRE(w.now, r, b)), r, b)
		}
	}
}

// refresh issues the controller granularity's refresh command to a
// random target of rank r, precharging what it conflicts with first.
func (w *oracleWorld) refresh(r int) {
	c, dev := w.c, w.c.dev
	if c.order == nil {
		return
	}
	all := func(int64) bool { return true }
	u := w.rng.Intn(len(c.units))
	sa := w.rng.Intn(dev.Params().Subarrays)
	inSA := func(row int64) bool { return dev.SubarrayOf(int(row)) == sa }
	switch c.gran {
	case granRank:
		w.closeBanks(r, c.units[0], all)
		dev.IssueREF(w.at(dev.EarliestREF(w.now, r)), r)
	case granSlot:
		w.closeBanks(r, c.units[u], all)
		dev.IssueREFSlot(w.at(dev.EarliestREFSlot(w.now, r, u)), r, u)
	case granBankSubarray:
		w.closeBanks(r, c.units[u], inSA)
		dev.IssueREFsa(w.at(dev.EarliestREFsa(w.now, r, u, sa)), r, u, sa)
	case granSlotSubarray:
		w.closeBanks(r, c.units[u], inSA)
		dev.IssueREFpbSub(w.at(dev.EarliestREFpbSub(w.now, r, u, sa)), r, u, sa)
	}
}

// step applies one random action.
func (w *oracleWorld) step() {
	c, dev, rng := w.c, w.c.dev, w.rng
	qs := w.queues()
	switch k := rng.Intn(100); {
	case k < 30: // enqueue
		ix := qs[rng.Intn(len(qs))].ix
		c.pushRequest(ix, &request{loc: w.randLoc(), arrive: w.now, prefetch: ix == &c.fillIdx})
	case k < 40: // dequeue a random request
		ix := qs[rng.Intn(len(qs))].ix
		if len(ix.active) > 0 {
			l := ix.lists[ix.active[rng.Intn(len(ix.active))]]
			ix.remove(l[rng.Intn(len(l))])
		}
	case k < 42: // drop a rank's fills
		c.fillIdx.clearRank(rng.Intn(c.geo.Ranks))
	case k < 60: // issue what the scheduler picks for a random queue
		q := qs[rng.Intn(len(qs))]
		if req, kind := c.issueFrom(q.ix, w.now, q.isWrite, q.demand); req != nil {
			c.issue(q.ix, req, kind, w.now)
		}
	case k < 80: // a random row command, at its earliest legal cycle
		loc := w.randLoc()
		r, b := loc.Rank, loc.Bank
		switch open := dev.OpenRow(r, b); {
		case open < 0:
			dev.IssueACT(w.at(dev.EarliestACTRow(w.now, r, b, loc.Row)), r, b, loc.Row)
		case rng.Intn(3) == 0:
			dev.IssuePRE(w.at(dev.EarliestPRE(w.now, r, b)), r, b)
		case rng.Intn(2) == 0:
			dev.IssueRD(w.at(dev.EarliestRD(w.now, r, b)), r, b)
		default:
			dev.IssueWR(w.at(dev.EarliestWR(w.now, r, b)), r, b)
		}
	case k < 84:
		w.refresh(rng.Intn(c.geo.Ranks))
	case k < 90: // move a rank's refresh machine in or out of closing
		if c.refresh != nil {
			rr := &c.refresh[rng.Intn(c.geo.Ranks)]
			rr.phase, rr.target = refIdle, rng.Intn(len(c.units))
			if rng.Intn(2) == 0 {
				rr.phase = refClosing
			}
		}
	default: // let time pass
		w.now += event.Cycle(rng.Intn(40))
	}
}

// check compares pick and wake with the oracle on every queue at now
// and at a few later cycles, and the index invariants.
func (w *oracleWorld) check(t *testing.T, where string) {
	t.Helper()
	c := w.c
	for qi, q := range w.queues() {
		if err := checkIndex(q.ix, c.geo.Ranks); err != nil {
			t.Fatalf("%s queue %d: %v", where, qi, err)
		}
		wake := c.queueWake(q.ix, w.now, q.isWrite, q.demand)
		if want := c.oracleQueueWake(q.ix, w.now, q.isWrite, q.demand); wake != want {
			t.Fatalf("%s queue %d: queueWake %d, oracle %d", where, qi, wake, want)
		}
		for _, at := range []event.Cycle{w.now, w.now + 1, w.now + event.Cycle(w.rng.Intn(30)), min(wake, w.now+1000)} {
			req, kind := c.issueFrom(q.ix, at, q.isWrite, q.demand)
			wantReq, wantKind := c.oraclePick(q.ix, at, q.isWrite, q.demand)
			if req != wantReq || req != nil && kind != wantKind {
				t.Fatalf("%s queue %d at %d: pick %v/%v, oracle %v/%v", where, qi, at, req, kind, wantReq, wantKind)
			}
		}
	}
}

// TestScheduleMatchesOracle checks the active-set pick and wake against
// the full-scan oracle on random device and queue states, over every
// refresh mode, 1–32 ranks and 8/16/32 banks.
func TestScheduleMatchesOracle(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 100
	}
	rng := rand.New(rand.NewSource(1))
	for _, oc := range oracleCases {
		for _, mode := range Modes() {
			for _, ranks := range []int{1, 2, 4, 32} {
				c := newOracleController(t, oc, ranks, mode)
				if c == nil {
					continue
				}
				w := &oracleWorld{c: c, rng: rand.New(rand.NewSource(rng.Int63()))}
				for i := 0; i < steps; i++ {
					w.step()
					w.check(t, fmt.Sprintf("%s/%d banks/%v/%d ranks step %d", oc.standard, oc.banks, mode, ranks, i))
				}
			}
		}
	}
}

// TestBankIndexConsistent applies random add, remove and clearRank
// sequences to one index and checks its counts, per-unit counts, active
// set and memos against its lists after every operation. The refresh
// unit mappings cover one bank per unit (DDR4 per-bank refresh),
// several banks per unit (DDR5 same-bank refresh slots) and the whole
// rank as one unit.
func TestBankIndexConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		oc   oracleCase
		mode Mode
	}{
		{oracleCase{"DDR4-1600", 8}, ModeBankRefresh},
		{oracleCase{"DDR5-4800", 32}, ModeBankRefresh},
		{oracleCase{"DDR4-1600", 8}, ModeBaseline},
	} {
		c := newOracleController(t, tc.oc, 4, tc.mode)
		geo := c.geo
		var ix bankIndex
		ix.init(geo, c.unitOf, len(c.units))
		var seq int64
		for i := 0; i < 20000; i++ {
			switch k := rng.Intn(10); {
			case k < 5:
				seq++
				ix.add(&request{seq: seq, loc: addr.Loc{
					Rank: rng.Intn(geo.Ranks), Bank: rng.Intn(geo.Banks), Row: rng.Intn(4)}})
			case k < 8:
				if len(ix.active) > 0 {
					l := ix.lists[ix.active[rng.Intn(len(ix.active))]]
					ix.remove(l[rng.Intn(len(l))])
				}
			case k < 9:
				s := rng.Intn(len(ix.lists))
				ix.classes(s, int64(rng.Intn(5))-1)
			default:
				if rng.Intn(20) == 0 {
					ix.clearRank(rng.Intn(geo.Ranks))
				}
			}
			if err := checkIndex(&ix, geo.Ranks); err != nil {
				t.Fatalf("%s/%d banks/%v op %d: %v", tc.oc.standard, tc.oc.banks, tc.mode, i, err)
			}
		}
	}
}
