package memctrl

import "ropsim/internal/addr"

// bankIndex is one transaction queue (reads, writes or prefetch fills),
// stored as per-(rank, bank) lists of pending requests, each in age
// (seq) order. It is the queue's only store: the scheduler visits only
// the slots that hold work (the active set), finds a bank's oldest row
// hit and oldest row miss in one step (the memo), and the refresh
// machine's queue-emptiness probes (hasDemandReads, hasFills and the
// per-unit unitHas) are O(1) counter reads. Every enqueue goes through
// add and every dequeue through remove or clearRank, so the lists,
// counts, active set and memos cannot drift apart.
//
// A slot is one (rank, bank) pair, numbered rank*banks+bank; its list
// is kept apart from its bookkeeping (bankSlot). A unit count covers one
// (rank, refresh unit) pair, numbered rank*units+unit under the
// controller's bank → unit mapping, so a refresh unit's emptiness probe
// (unitHas) reads one counter instead of its banks' list headers.
type bankIndex struct {
	banks  int          // banks per rank (slot stride)
	units  int          // refresh units per rank (unitN stride)
	unitOf []int        // bank → refresh unit (shared with the controller)
	lists  [][]*request // slot → pending requests, oldest first
	slots  []bankSlot   // slot → bookkeeping
	rankN  []int        // pending requests per rank
	unitN  []int        // pending requests per (rank, refresh unit)
	n      int          // pending requests in all
	active []int        // slots whose list is non-empty, in no particular order
}

// bankSlot is one slot's bookkeeping.
type bankSlot struct {
	pos        int32 // index in the active set while the list is non-empty
	rank, bank int32
	memo       bankMemo
}

// bankMemo caches, for one slot, the oldest request to row (hit) and
// the oldest request to any other row (miss), nil when the class is
// empty. row is the bank's open row the memo was computed for (-1 for
// a precharged bank, so every request is a miss). A list change updates
// the memo in place or drops it; a row change (ACT, PRE or refresh)
// shows as row no longer matching the device's open row, and classes
// recomputes it then.
type bankMemo struct {
	row       int64
	hit, miss *request
	valid     bool
}

// init sizes the index for the channel geometry and the refresh
// granularity's units: unitOf maps each bank to one of units units.
func (ix *bankIndex) init(geo addr.Geometry, unitOf []int, units int) {
	n := geo.Ranks * geo.Banks
	ix.banks = geo.Banks
	ix.units, ix.unitOf = units, unitOf
	ix.lists = make([][]*request, n)
	ix.slots = make([]bankSlot, n)
	for r := 0; r < geo.Ranks; r++ {
		for b := 0; b < geo.Banks; b++ {
			sl := &ix.slots[ix.slot(r, b)]
			sl.rank, sl.bank = int32(r), int32(b)
		}
	}
	ix.rankN = make([]int, geo.Ranks)
	ix.unitN = make([]int, geo.Ranks*units)
	ix.active = make([]int, 0, n)
}

// slot maps a (rank, bank) pair to its list index.
func (ix *bankIndex) slot(rank, bank int) int { return rank*ix.banks + bank }

// unit maps a (rank, bank) pair to its unit count's index.
func (ix *bankIndex) unit(rank, bank int) int { return rank*ix.units + ix.unitOf[bank] }

// unitHas reports whether the queue holds a request for a bank of rank
// r's refresh unit u.
func (ix *bankIndex) unitHas(r, u int) bool { return ix.unitN[r*ix.units+u] > 0 }

// rankBank maps slot s back to its (rank, bank) pair.
func (ix *bankIndex) rankBank(s int) (rank, bank int) {
	return int(ix.slots[s].rank), int(ix.slots[s].bank)
}

// add appends req to its bank's list. Callers add requests in seq
// order, so lists stay age-sorted and req is its bank's newest.
func (ix *bankIndex) add(req *request) {
	s := ix.slot(req.loc.Rank, req.loc.Bank)
	if len(ix.lists[s]) == 0 {
		ix.slots[s].pos = int32(len(ix.active))
		ix.active = append(ix.active, s)
	}
	ix.lists[s] = append(ix.lists[s], req)
	ix.rankN[req.loc.Rank]++
	ix.unitN[ix.unit(req.loc.Rank, req.loc.Bank)]++
	ix.n++
	if m := &ix.slots[s].memo; m.valid {
		// The newest request is the oldest of its class only when the
		// class was empty.
		if int64(req.loc.Row) == m.row {
			if m.hit == nil {
				m.hit = req
			}
		} else if m.miss == nil {
			m.miss = req
		}
	}
}

// remove deletes req from its bank's list (no-op if absent).
func (ix *bankIndex) remove(req *request) {
	s := ix.slot(req.loc.Rank, req.loc.Bank)
	l := ix.lists[s]
	for j, r := range l {
		if r != req {
			continue
		}
		copy(l[j:], l[j+1:])
		l[len(l)-1] = nil
		ix.lists[s] = l[:len(l)-1]
		ix.rankN[req.loc.Rank]--
		ix.unitN[ix.unit(req.loc.Rank, req.loc.Bank)]--
		ix.n--
		if m := &ix.slots[s].memo; req == m.hit || req == m.miss {
			m.valid = false
		}
		if len(l) == 1 {
			ix.deactivate(s)
		}
		return
	}
}

// clearRank empties every list of rank and reports how many requests
// it dropped.
func (ix *bankIndex) clearRank(rank int) int {
	dropped := ix.rankN[rank]
	for s := ix.slot(rank, 0); s < ix.slot(rank+1, 0); s++ {
		l := ix.lists[s]
		if len(l) == 0 {
			continue
		}
		clear(l)
		ix.lists[s] = l[:0]
		ix.slots[s].memo.valid = false
		ix.deactivate(s)
	}
	ix.rankN[rank] = 0
	clear(ix.unitN[rank*ix.units : (rank+1)*ix.units])
	ix.n -= dropped
	return dropped
}

// deactivate swap-deletes the now-empty slot s from the active set.
func (ix *bankIndex) deactivate(s int) {
	i, last := ix.slots[s].pos, len(ix.active)-1
	moved := ix.active[last]
	ix.active[i] = moved
	ix.slots[moved].pos = i
	ix.active = ix.active[:last]
}

// list returns the bank's pending requests, oldest first. Callers must
// not mutate it.
func (ix *bankIndex) list(rank, bank int) []*request {
	return ix.lists[ix.slot(rank, bank)]
}

// classes reports slot s's oldest request to the open row (hit) and
// oldest request to any other row (miss), for a bank whose open row is
// open (-1 when precharged: then hit is nil and miss is the oldest
// request). Either is nil when its class is empty.
func (ix *bankIndex) classes(s int, open int64) (hit, miss *request) {
	m := &ix.slots[s].memo
	if !m.valid || m.row != open {
		*m = bankMemo{row: open, valid: true}
		for _, req := range ix.lists[s] {
			if int64(req.loc.Row) == open {
				if m.hit == nil {
					m.hit = req
				}
			} else if m.miss == nil {
				m.miss = req
			}
			if m.hit != nil && m.miss != nil {
				break
			}
		}
	}
	return m.hit, m.miss
}
