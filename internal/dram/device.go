package dram

import (
	"fmt"

	"ropsim/internal/addr"
	"ropsim/internal/event"
	"ropsim/internal/stats"
)

// CommandKind enumerates the DRAM commands the controller can issue.
type CommandKind int

// DRAM command kinds.
const (
	CmdACT CommandKind = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
	// CmdREFpb is a bank-granularity refresh (LPDDR4 REFpb / DDR5
	// REFsb / the paper's §VII bank refresh): only the target bank
	// locks, for tRFCpb. A same-bank refresh emits one CmdREFpb per
	// bank of its set.
	CmdREFpb
	// CmdREFsa is a subarray-scoped refresh: only the Sub subarray of
	// the target bank locks, so the bank's other subarrays keep serving
	// accesses. ModeSubarrayRefresh issues it with duration tRFCsa; SARP
	// (Chang et al. HPCA'14) issues it with duration tRFCpb — a full
	// per-bank refresh confined to one subarray region per command.
	CmdREFsa
)

// String implements fmt.Stringer.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	case CmdREFpb:
		return "REFpb"
	case CmdREFsa:
		return "REFsa"
	}
	return fmt.Sprintf("CommandKind(%d)", int(k))
}

// Command is one issued DRAM command, used by the validity checker and
// by trace capture.
type Command struct {
	Kind CommandKind // which DRAM command was issued
	At   event.Cycle // issue time in bus cycles
	Rank int         // target rank
	Bank int         // unused for REF
	Row  int         // ACT only
	Col  int         // RD/WR only
	Sub  int         // REFsa only: the refreshed subarray
}

const noRow = -1

// bank holds the per-bank state machine: which row is open and the
// earliest cycle at which each command class may next be issued.
type bank struct {
	openRow int64 // noRow when precharged

	actAllowed event.Cycle // earliest next ACT
	preAllowed event.Cycle // earliest next PRE
	rcdAllowed event.Cycle // earliest next RD or WR: tRCD after the ACT (see rank.colAllowed)

	refBusyUntil event.Cycle // bank locked by a per-bank refresh

	// saRefBusyUntil locks individual subarrays (subarray-level
	// refresh); lazily allocated.
	saRefBusyUntil []event.Cycle
}

// rank holds per-rank constraints shared by its banks.
type rank struct {
	banks []bank

	rrdAllowed   event.Cycle    // ACT-to-ACT across banks (tRRD)
	colAllowed   event.Cycle    // column-to-column across banks (tCCD)
	faw          [4]event.Cycle // times of the last four ACTs
	fawIdx       int
	rdAfterWrite event.Cycle // tWTR: end of write data + WTR
	refBusyUntil event.Cycle // rank frozen by refresh until this cycle
}

// Device models one DRAM channel: its ranks, banks and shared data bus.
// The controller asks Earliest* for the first legal issue cycle of a
// command and then commits it with Issue*.
type Device struct {
	p     Params
	geo   addr.Geometry
	ranks []rank

	// slotBanks maps each refresh slot to the banks one bank-granularity
	// refresh command locks: singletons for per-bank refresh, one bank
	// per bank group for DDR5-style same-bank refresh (see RefreshSlots).
	slotBanks [][]int

	busFreeAt   event.Cycle // data bus free from this cycle on
	lastBusRank int         // rank that last owned the data bus

	// Counters feed the energy model and the experiment reports.
	NumACT, NumPRE, NumRD, NumWR, NumREF stats.Counter
	// RefLockedCycles accumulates the total time ranks spent locked by
	// refresh activity (full refreshes and paused segments alike), for
	// energy accounting under partial-refresh policies.
	RefLockedCycles stats.Counter
}

// RegisterMetrics registers the device's command and refresh-lock
// counters into r (typically a "dram"-scoped sub-registry). Counts are
// channel totals; ref_locked_cycles is in bus cycles.
func (d *Device) RegisterMetrics(r *stats.Registry) {
	r.Register("num_act", &d.NumACT)
	r.Register("num_pre", &d.NumPRE)
	r.Register("num_rd", &d.NumRD)
	r.Register("num_wr", &d.NumWR)
	r.Register("num_ref", &d.NumREF)
	r.Register("ref_locked_cycles", &d.RefLockedCycles)
}

// NewDevice builds a device for one channel of the given geometry. It
// panics on invalid parameters: both are fixed configuration.
func NewDevice(p Params, geo addr.Geometry) *Device {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	d := &Device{p: p, geo: geo, lastBusRank: -1}
	d.ranks = make([]rank, geo.Ranks)
	for r := range d.ranks {
		d.ranks[r].banks = make([]bank, geo.Banks)
		for b := range d.ranks[r].banks {
			d.ranks[r].banks[b].openRow = noRow
		}
		for i := range d.ranks[r].faw {
			d.ranks[r].faw[i] = fawNever
		}
	}
	d.slotBanks = buildSlotBanks(p, geo)
	return d
}

// buildSlotBanks precomputes the slot-to-banks map: under same-bank
// refresh slot s covers bank index s of every bank group (banks are
// numbered group-major, so the set is {s, s+banksPerGroup, ...});
// otherwise every bank is its own slot.
func buildSlotBanks(p Params, geo addr.Geometry) [][]int {
	if p.NativeGranularity == GranularitySameBank && p.BankGroups > 1 {
		if geo.Banks%p.BankGroups != 0 {
			panic(fmt.Sprintf("dram: %d banks not divisible into %d bank groups",
				geo.Banks, p.BankGroups))
		}
		per := geo.Banks / p.BankGroups
		sets := make([][]int, per)
		for s := 0; s < per; s++ {
			for g := 0; g < p.BankGroups; g++ {
				sets[s] = append(sets[s], g*per+s)
			}
		}
		return sets
	}
	sets := make([][]int, geo.Banks)
	for b := 0; b < geo.Banks; b++ {
		sets[b] = []int{b}
	}
	return sets
}

// RefreshSlots reports how many bank-granularity refresh commands one
// full refresh round takes: banks-per-group under same-bank refresh
// (one REFsb covers a whole bank set), the bank count otherwise.
func (d *Device) RefreshSlots() int { return len(d.slotBanks) }

// SlotBanks reports the banks the given refresh slot's command locks.
// The returned slice is shared; callers must not mutate it.
func (d *Device) SlotBanks(slot int) []int { return d.slotBanks[slot] }

// SlotOf reports which refresh slot covers the given bank.
func (d *Device) SlotOf(bank int) int {
	if n := len(d.slotBanks); n < d.geo.Banks {
		return bank % n // same-bank sets: slot = bank index within group
	}
	return bank
}

// Params reports the device timing parameters.
func (d *Device) Params() Params { return d.p }

// Geometry reports the device geometry.
func (d *Device) Geometry() addr.Geometry { return d.geo }

// OpenRow reports the row open in the given bank, or -1 when precharged.
func (d *Device) OpenRow(rankID, bankID int) int64 {
	return d.ranks[rankID].banks[bankID].openRow
}

// Refreshing reports whether the rank is frozen by a refresh at cycle
// now.
func (d *Device) Refreshing(rankID int, now event.Cycle) bool {
	return now < d.ranks[rankID].refBusyUntil
}

// BankRefreshing reports whether the bank is locked by a per-bank
// refresh at cycle now.
func (d *Device) BankRefreshing(rankID, bankID int, now event.Cycle) bool {
	return now < d.ranks[rankID].banks[bankID].refBusyUntil
}

// SubarrayOf reports which subarray a row belongs to.
func (d *Device) SubarrayOf(row int) int {
	if d.p.Subarrays <= 0 {
		return 0
	}
	per := d.geo.Rows / d.p.Subarrays
	if per == 0 {
		return 0
	}
	sa := row / per
	if sa >= d.p.Subarrays {
		sa = d.p.Subarrays - 1
	}
	return sa
}

// SubarrayRefreshing reports whether the subarray holding row is locked
// by a subarray-level refresh at cycle now.
func (d *Device) SubarrayRefreshing(rankID, bankID, row int, now event.Cycle) bool {
	bk := &d.ranks[rankID].banks[bankID]
	if bk.saRefBusyUntil == nil {
		return false
	}
	return now < bk.saRefBusyUntil[d.SubarrayOf(row)]
}

// EarliestREFsa reports the first cycle ≥ now at which a subarray-level
// refresh of the given subarray is legal. The subarray's rows need not
// be closed — only ACTs targeting the refreshing subarray conflict — but
// an open row inside it must be precharged first; callers ensure that.
func (d *Device) EarliestREFsa(now event.Cycle, rankID, bankID, sa int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	t := max(now, rk.refBusyUntil, bk.refBusyUntil)
	if bk.saRefBusyUntil != nil {
		t = max(t, bk.saRefBusyUntil[sa])
	}
	return t
}

// IssueREFsa commits a subarray-level refresh: only the target subarray
// locks, for tRFCsa. The bank's other subarrays keep operating (their
// ACTs proceed). It returns the unlock cycle.
func (d *Device) IssueREFsa(at event.Cycle, rankID, bankID, sa int) event.Cycle {
	if d.p.RFCsa <= 0 || d.p.Subarrays <= 0 {
		panic("dram: REFsa without subarray timing")
	}
	if sa < 0 || sa >= d.p.Subarrays {
		panic("dram: subarray out of range")
	}
	bk := &d.ranks[rankID].banks[bankID]
	if bk.openRow != noRow && d.SubarrayOf(int(bk.openRow)) == sa {
		panic("dram: REFsa with the target subarray's row open")
	}
	if bk.saRefBusyUntil == nil {
		bk.saRefBusyUntil = make([]event.Cycle, d.p.Subarrays)
	}
	end := at + d.p.RFCsa
	bk.saRefBusyUntil[sa] = end
	d.NumREF.Inc()
	d.RefLockedCycles.Add(int64(d.p.RFCsa))
	return end
}

// AnySubarrayRefreshing reports whether any subarray of the bank is
// locked by a subarray-scoped refresh at cycle now. SARP's
// parallel-service accounting uses it to count demand commands served
// while the bank is mid-refresh.
func (d *Device) AnySubarrayRefreshing(rankID, bankID int, now event.Cycle) bool {
	bk := &d.ranks[rankID].banks[bankID]
	for _, t := range bk.saRefBusyUntil {
		if now < t {
			return true
		}
	}
	return false
}

// EarliestREFpbSub reports the first cycle ≥ now at which a SARP
// subarray-confined bank refresh of the slot's banks is legal: like a
// slot refresh, but only the target subarray of each bank must be
// quiet — open rows in other subarrays keep the banks serving.
func (d *Device) EarliestREFpbSub(now event.Cycle, rankID, slot, sa int) event.Cycle {
	t := now
	for _, b := range d.slotBanks[slot] {
		t = max(t, d.EarliestREFsa(now, rankID, b, sa))
	}
	return t
}

// IssueREFpbSub commits one SARP refresh command (Chang et al.
// HPCA'14): each bank of the slot locks only subarray sa, for tRFCpb —
// the full per-bank refresh current and duration, confined by SARP's
// per-subarray peripherals to one subarray region per command. Demand
// to the banks' other subarrays proceeds throughout. One command
// increments NumREF once; the locked time accounts each bank's frozen
// subarray window. It returns the unlock cycle.
func (d *Device) IssueREFpbSub(at event.Cycle, rankID, slot, sa int) event.Cycle {
	if d.p.RFCpb <= 0 || d.p.Subarrays <= 0 {
		panic("dram: REFpbSub without RFCpb/subarray timing")
	}
	if sa < 0 || sa >= d.p.Subarrays {
		panic("dram: subarray out of range")
	}
	end := at + d.p.RFCpb
	for _, b := range d.slotBanks[slot] {
		bk := &d.ranks[rankID].banks[b]
		if bk.openRow != noRow && d.SubarrayOf(int(bk.openRow)) == sa {
			panic("dram: REFpbSub with the target subarray's row open")
		}
		if bk.saRefBusyUntil == nil {
			bk.saRefBusyUntil = make([]event.Cycle, d.p.Subarrays)
		}
		bk.saRefBusyUntil[sa] = end
		d.RefLockedCycles.Add(int64(d.p.RFCpb))
	}
	d.NumREF.Inc()
	return end
}

// EarliestREFpb reports the first cycle ≥ now at which a per-bank
// refresh of the given (closed) bank is legal.
func (d *Device) EarliestREFpb(now event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	return max(now, bk.actAllowed, bk.refBusyUntil, rk.refBusyUntil)
}

// IssueREFpb commits a per-bank refresh: only the target bank locks for
// tRFCpb; sibling banks keep operating. It returns the unlock cycle.
func (d *Device) IssueREFpb(at event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	if bk.openRow != noRow {
		panic("dram: REFpb with open bank")
	}
	if d.p.RFCpb <= 0 {
		panic("dram: REFpb without RFCpb timing")
	}
	end := at + d.p.RFCpb
	bk.refBusyUntil = end
	bk.actAllowed = max(bk.actAllowed, end)
	d.NumREF.Inc()
	d.RefLockedCycles.Add(int64(d.p.RFCpb))
	return end
}

// EarliestREFSlot reports the first cycle ≥ now at which the given
// refresh slot's bank-granularity refresh is legal: the latest
// EarliestREFpb over the slot's (closed) bank set. For singleton slots
// it is exactly EarliestREFpb.
func (d *Device) EarliestREFSlot(now event.Cycle, rankID, slot int) event.Cycle {
	t := now
	for _, b := range d.slotBanks[slot] {
		t = max(t, d.EarliestREFpb(now, rankID, b))
	}
	return t
}

// IssueREFSlot commits one bank-granularity refresh command for the
// slot: every bank in the slot's set locks for tRFCpb (DDR5 REFsb
// refreshes the same bank index in all groups at once; per-bank
// standards lock just the one bank). One command increments NumREF
// once; the locked time accounts each frozen bank. It returns the
// unlock cycle.
func (d *Device) IssueREFSlot(at event.Cycle, rankID, slot int) event.Cycle {
	if d.p.RFCpb <= 0 {
		panic("dram: REF slot without RFCpb timing")
	}
	rk := &d.ranks[rankID]
	end := at + d.p.RFCpb
	for _, b := range d.slotBanks[slot] {
		bk := &rk.banks[b]
		if bk.openRow != noRow {
			panic("dram: slot refresh with open bank")
		}
		bk.refBusyUntil = end
		bk.actAllowed = max(bk.actAllowed, end)
		d.RefLockedCycles.Add(int64(d.p.RFCpb))
	}
	d.NumREF.Inc()
	return end
}

// RefreshEnd reports when the rank's current refresh lock ends (a cycle
// in the past if the rank is not refreshing).
func (d *Device) RefreshEnd(rankID int) event.Cycle {
	return d.ranks[rankID].refBusyUntil
}

// fawNever marks an empty slot in the four-activate ring buffer.
const fawNever = event.Cycle(-1)

// fawAllowed reports the earliest cycle a new ACT satisfies the
// four-activate window: the fourth-newest ACT must be at least tFAW
// (the faw argument) old.
func (r *rank) fawAllowed(faw event.Cycle) event.Cycle {
	oldest := r.faw[r.fawIdx] // ring buffer: current index holds the 4th-newest
	if oldest == fawNever {
		return 0
	}
	return oldest + faw
}

// EarliestACT reports the first cycle ≥ now at which ACT(rank,bank) is
// legal. The bank must be precharged; callers check OpenRow first.
func (d *Device) EarliestACT(now event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	return max(now, bk.actAllowed, bk.refBusyUntil, rk.rrdAllowed, rk.fawAllowed(d.p.FAW), rk.refBusyUntil)
}

// EarliestACTRow is EarliestACT extended with subarray-level refresh
// awareness: an ACT into a refreshing subarray waits for its unlock.
func (d *Device) EarliestACTRow(now event.Cycle, rankID, bankID, row int) event.Cycle {
	t := d.EarliestACT(now, rankID, bankID)
	bk := &d.ranks[rankID].banks[bankID]
	if bk.saRefBusyUntil != nil {
		t = max(t, bk.saRefBusyUntil[d.SubarrayOf(row)])
	}
	return t
}

// IssueACT commits an activate at cycle at (which must come from
// EarliestACT or later). It opens the row and advances timing state.
func (d *Device) IssueACT(at event.Cycle, rankID, bankID, row int) {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	if bk.openRow != noRow {
		panic("dram: ACT on bank with open row")
	}
	bk.openRow = int64(row)
	bk.rcdAllowed = max(bk.rcdAllowed, at+d.p.RCD)
	bk.preAllowed = max(bk.preAllowed, at+d.p.RAS)
	bk.actAllowed = max(bk.actAllowed, at+d.p.RC)
	rk.rrdAllowed = max(rk.rrdAllowed, at+d.p.RRD)
	rk.faw[rk.fawIdx] = at
	rk.fawIdx = (rk.fawIdx + 1) % len(rk.faw)
	d.NumACT.Inc()
}

// EarliestPRE reports the first cycle ≥ now at which PRE(rank,bank) is
// legal.
func (d *Device) EarliestPRE(now event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	return max(now, bk.preAllowed, rk.refBusyUntil)
}

// IssuePRE commits a precharge: closes the row and starts tRP.
func (d *Device) IssuePRE(at event.Cycle, rankID, bankID int) {
	bk := &d.ranks[rankID].banks[bankID]
	if bk.openRow == noRow {
		panic("dram: PRE on precharged bank")
	}
	bk.openRow = noRow
	bk.actAllowed = max(bk.actAllowed, at+d.p.RP)
	d.NumPRE.Inc()
}

// busAvailable reports the first cycle ≥ want at which the data bus is
// free for rankID, including the rank-to-rank switch penalty.
func (d *Device) busAvailable(want event.Cycle, rankID int) event.Cycle {
	free := d.busFreeAt
	if d.lastBusRank >= 0 && d.lastBusRank != rankID {
		free += d.p.RTR
	}
	return max(want, free)
}

// EarliestRD reports the first cycle ≥ now at which RD(rank,bank) is
// legal. The target row must already be open.
func (d *Device) EarliestRD(now event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	t := max(now, bk.rcdAllowed, rk.colAllowed, rk.rdAfterWrite, rk.refBusyUntil)
	// The burst occupies the bus [t+CL, t+CL+BL/2); push t until it fits.
	for {
		dataStart := t + d.p.CL
		avail := d.busAvailable(dataStart, rankID)
		if avail == dataStart {
			return t
		}
		t += avail - dataStart
	}
}

// IssueRD commits a read. It returns the cycle at which the burst
// completes (data available to the controller).
func (d *Device) IssueRD(at event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	if bk.openRow == noRow {
		panic("dram: RD on precharged bank")
	}
	bk.preAllowed = max(bk.preAllowed, at+d.p.RTP)
	dataStart := at + d.p.CL
	dataEnd := dataStart + d.p.DataCycles()
	d.busFreeAt = dataEnd
	d.lastBusRank = rankID
	// Column commands to every bank of the rank share the column pipes.
	rk.colAllowed = max(rk.colAllowed, at+d.p.CCD)
	d.NumRD.Inc()
	return dataEnd
}

// EarliestWR reports the first cycle ≥ now at which WR(rank,bank) is
// legal. The target row must already be open.
func (d *Device) EarliestWR(now event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	t := max(now, bk.rcdAllowed, rk.colAllowed, rk.refBusyUntil)
	for {
		dataStart := t + d.p.CWL
		avail := d.busAvailable(dataStart, rankID)
		if avail == dataStart {
			return t
		}
		t += avail - dataStart
	}
}

// IssueWR commits a write. It returns the cycle at which the write data
// burst has been transferred.
func (d *Device) IssueWR(at event.Cycle, rankID, bankID int) event.Cycle {
	rk := &d.ranks[rankID]
	bk := &rk.banks[bankID]
	if bk.openRow == noRow {
		panic("dram: WR on precharged bank")
	}
	dataStart := at + d.p.CWL
	dataEnd := dataStart + d.p.DataCycles()
	bk.preAllowed = max(bk.preAllowed, dataEnd+d.p.WR)
	rk.rdAfterWrite = max(rk.rdAfterWrite, dataEnd+d.p.WTR)
	d.busFreeAt = dataEnd
	d.lastBusRank = rankID
	rk.colAllowed = max(rk.colAllowed, at+d.p.CCD)
	d.NumWR.Inc()
	return dataEnd
}

// NextReadyCycle reports the earliest cycle ≥ now at which the next
// command needed by a request targeting (rankID, bankID, row) could
// legally issue: the column command (RD, or WR when isWrite) when the
// row is already open, PRE when a different row occupies the bank, and
// ACT (subarray-refresh aware) when the bank is precharged. It is the
// memory controller's wake-time oracle: device timing state only
// advances when commands issue, so between issues the controller can
// sleep until the returned cycle without missing an opportunity —
// this replaces the old tick-every-cycle retry polling. Like every
// Earliest* query it is stable: asking again at the returned cycle
// yields the same cycle.
func (d *Device) NextReadyCycle(now event.Cycle, rankID, bankID, row int, isWrite bool) event.Cycle {
	open := d.ranks[rankID].banks[bankID].openRow
	switch {
	case open == int64(row):
		if isWrite {
			return d.EarliestWR(now, rankID, bankID)
		}
		return d.EarliestRD(now, rankID, bankID)
	case open != noRow:
		return d.EarliestPRE(now, rankID, bankID)
	default:
		return d.EarliestACTRow(now, rankID, bankID, row)
	}
}

// AllBanksClosed reports whether every bank in the rank is precharged —
// the precondition for REF.
func (d *Device) AllBanksClosed(rankID int) bool {
	for b := range d.ranks[rankID].banks {
		if d.ranks[rankID].banks[b].openRow != noRow {
			return false
		}
	}
	return true
}

// EarliestREF reports the first cycle ≥ now at which REF(rank) is legal,
// assuming all banks are (or will be by then) precharged. Callers must
// ensure AllBanksClosed before issuing.
func (d *Device) EarliestREF(now event.Cycle, rankID int) event.Cycle {
	rk := &d.ranks[rankID]
	t := max(now, rk.refBusyUntil)
	for b := range rk.banks {
		// tRP must have elapsed since the closing PRE; actAllowed encodes it.
		t = max(t, rk.banks[b].actAllowed)
	}
	return t
}

// IssueREF commits a refresh: the rank is frozen for tRFC and no bank may
// activate until the refresh completes. It returns the unlock cycle.
func (d *Device) IssueREF(at event.Cycle, rankID int) event.Cycle {
	end := d.lockForRefresh(at, rankID, d.p.RFC)
	d.NumREF.Inc()
	return end
}

// IssueREFSegment commits one pausable-refresh segment (Refresh Pausing,
// Nair et al. HPCA'13): the rank freezes for dur instead of the full
// tRFC. The caller accounts for how many segments complete one logical
// refresh. It returns the unlock cycle.
func (d *Device) IssueREFSegment(at event.Cycle, rankID int, dur event.Cycle) event.Cycle {
	if dur <= 0 {
		panic("dram: non-positive refresh segment")
	}
	return d.lockForRefresh(at, rankID, dur)
}

// lockForRefresh freezes the rank for dur starting at at.
func (d *Device) lockForRefresh(at event.Cycle, rankID int, dur event.Cycle) event.Cycle {
	rk := &d.ranks[rankID]
	if !d.AllBanksClosed(rankID) {
		panic("dram: REF with open banks")
	}
	end := at + dur
	rk.refBusyUntil = end
	for b := range rk.banks {
		rk.banks[b].actAllowed = max(rk.banks[b].actAllowed, end)
	}
	d.RefLockedCycles.Add(int64(dur))
	return end
}
