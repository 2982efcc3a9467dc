package memctrl

import (
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// Microbenchmarks for the controller hot paths: demand service through
// the per-bank queues, FR-FCFS on a wide channel with few busy banks,
// and the exact-wake sleep through refresh cadence with no traffic. cmd/benchgate snapshots these numbers into
// BENCH_<date>.json.

func benchController(mode Mode) (*Controller, *event.Queue) {
	params := dram.DDR4_1600(dram.Refresh1x)
	if mode == ModeNoRefresh {
		params = dram.NoRefresh(params)
	}
	q := &event.Queue{}
	dev := dram.NewDevice(params, addr.Geometry{
		Channels: 1, Ranks: 2, Banks: 8, Rows: 512, ColumnLines: 64,
	})
	return MustNew(DefaultConfig(mode), dev, q), q
}

// runRead enqueues one read and dispatches until its data returns.
func runRead(b *testing.B, c *Controller, q *event.Queue, loc addr.Loc) {
	done := false
	if !c.EnqueueRead(loc, 0, func(event.Cycle) { done = true }) {
		b.Fatal("enqueue rejected")
	}
	for !done {
		if !q.Step() {
			b.Fatal("queue drained before read completed")
		}
	}
}

// BenchmarkReadRowHit measures the row-hit fast path: every read after
// the first hits the open row.
func BenchmarkReadRowHit(b *testing.B) {
	c, q := benchController(ModeNoRefresh)
	runRead(b, c, q, addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRead(b, c, q, addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: i % 64})
	}
}

// BenchmarkReadRowMiss measures the PRE+ACT row-miss path, alternating
// rows within one bank.
func BenchmarkReadRowMiss(b *testing.B) {
	c, q := benchController(ModeNoRefresh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRead(b, c, q, addr.Loc{Rank: 0, Bank: 0, Row: i % 2, Col: 0})
	}
}

// BenchmarkIdleRefreshCadence measures simulating one tREFI of wall
// time with no traffic: the controller must sleep between refresh
// phases instead of ticking every cycle, so the per-iteration cost is
// a handful of events, not thousands.
func BenchmarkIdleRefreshCadence(b *testing.B) {
	c, q := benchController(ModeBaseline)
	refi := c.Device().Params().REFI
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.RunUntil(q.Now() + refi)
	}
}

// BenchmarkScheduleSparseDDR5 measures FR-FCFS issue and wake on a
// DDR5-4800 channel of 4 ranks × 32 banks where only four banks hold
// work: each iteration queues 16 reads over them, two rows per bank, so
// the batch mixes row hits and misses, and dispatches until all 16 have
// returned.
func BenchmarkScheduleSparseDDR5(b *testing.B) {
	std, err := dram.Lookup("DDR5-4800")
	if err != nil {
		b.Fatal(err)
	}
	p, err := std.Params(dram.Refresh1x)
	if err != nil {
		b.Fatal(err)
	}
	q := &event.Queue{}
	c := MustNew(DefaultConfig(ModeNoRefresh), dram.NewDevice(dram.NoRefresh(p), std.Geometry(4)), q)
	busy := [...]addr.Loc{{Rank: 0, Bank: 3}, {Rank: 1, Bank: 17}, {Rank: 2, Bank: 8}, {Rank: 3, Bank: 30}}
	pending := 0
	done := func(event.Cycle) { pending-- }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			loc := busy[j%len(busy)]
			loc.Row, loc.Col = (i+j/8)%4, j
			if !c.EnqueueRead(loc, 0, done) {
				b.Fatal("enqueue rejected")
			}
			pending++
		}
		for pending > 0 {
			if !q.Step() {
				b.Fatal("queue drained before the batch completed")
			}
		}
	}
}

// BenchmarkOutOfOrderRefreshBusy measures the out-of-order refresh
// ordering under load: DARP on 4 ranks of DDR4-1600, with a read every
// 8 cycles spread over two banks per rank (mostly row hits), so those
// banks' refreshes are postponed while the other six per rank are
// pulled in. Each iteration simulates one tREFI.
func BenchmarkOutOfOrderRefreshBusy(b *testing.B) {
	q := &event.Queue{}
	dev := dram.NewDevice(dram.DDR4_1600(dram.Refresh1x), addr.Geometry{
		Channels: 1, Ranks: 4, Banks: 8, Rows: 512, ColumnLines: 64,
	})
	c := MustNew(DefaultConfig(ModeDARP), dev, q)
	refi := dev.Params().REFI
	busy := [...]addr.Loc{
		{Rank: 0, Bank: 1}, {Rank: 1, Bank: 2}, {Rank: 2, Bank: 5}, {Rank: 3, Bank: 6},
		{Rank: 0, Bank: 4}, {Rank: 1, Bank: 7}, {Rank: 2, Bank: 0}, {Rank: 3, Bank: 3},
	}
	n := 0
	done := func(event.Cycle) {}
	var drive func(now event.Cycle)
	drive = func(now event.Cycle) {
		loc := busy[n%len(busy)]
		loc.Row, loc.Col = n/256%4, n%64
		c.EnqueueRead(loc, 0, done) // a full queue rejects it: the banks stay busy either way
		n++
		q.Schedule(now+8, drive)
	}
	q.Schedule(0, drive)
	q.RunUntil(refi) // past the first refreshes, into steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.RunUntil(q.Now() + refi)
	}
}
