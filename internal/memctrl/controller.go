// Package memctrl implements the simulated memory controller: read and
// write transaction queues with FR-FCFS scheduling and batched write
// drain, the per-rank refresh state machine composed from granularity,
// ordering and ROP prefetch parts (one preset per Mode, from JEDEC
// auto-refresh to the paper's ROP with pre-refresh drain and prefetch),
// and the SRAM service path that answers reads while a rank is frozen.
package memctrl

import (
	"fmt"
	"strings"

	"ropsim/internal/addr"
	"ropsim/internal/core"
	"ropsim/internal/dram"
	"ropsim/internal/event"
	"ropsim/internal/stats"
)

// Mode selects the refresh handling policy.
type Mode int

// Refresh handling modes.
const (
	// ModeBaseline is JEDEC auto-refresh: when a refresh is due the rank
	// closes its banks and freezes for tRFC; conflicting requests wait.
	ModeBaseline Mode = iota
	// ModeNoRefresh is the idealized refresh-free memory used to bound
	// refresh overheads (paper §III-A).
	ModeNoRefresh
	// ModeROP adds the paper's contribution: pre-refresh drain, the
	// probabilistic prefetcher, and SRAM service during the freeze.
	ModeROP
	// ModeElastic is Elastic Refresh (Stuecheli et al., MICRO'10), one
	// of the paper's related-work baselines: a due refresh is postponed
	// while demand reads are pending, up to the JEDEC limit of eight
	// outstanding refreshes, and issued during idle gaps.
	ModeElastic
	// ModePausing is Refresh Pausing (Nair et al., HPCA'13), another
	// related-work baseline: a refresh proceeds in tRFC/8 segments and
	// pauses between segments to service pending reads, resuming when
	// the rank's queue drains (with a re-lock overhead per resume).
	ModePausing
	// ModeBankRefresh refreshes one bank at a time (tREFIpb = tREFI /
	// banks apart, tRFCpb each): the paper's §VII future-work
	// granularity. Sibling banks keep serving during a bank's refresh.
	ModeBankRefresh
	// ModeROPBank combines bank-level refresh with ROP: before a bank
	// refreshes, its predicted lines are staged in the SRAM buffer, so
	// even the refreshed bank keeps answering reads.
	ModeROPBank
	// ModeSubarrayRefresh refreshes one subarray at a time (the paper's
	// §VII finest granularity, SALP-style): only rows of the refreshing
	// subarray conflict; the rest of the bank keeps serving.
	ModeSubarrayRefresh
	// ModeOutOfOrderBank is out-of-order per-bank refresh scheduling
	// (Chang et al. HPCA'14 §4.2 baseline scheduler): each refresh
	// slot's due time is tracked separately, an idle slot's refresh is
	// pulled forward and a busy slot's postponed, both within the JEDEC
	// eight-command pull-in/postpone window.
	ModeOutOfOrderBank
	// ModeDARP is Dynamic Access-Refresh Parallelization (Chang et al.
	// HPCA'14): out-of-order per-bank refresh plus write-drain
	// piggybacking — during a write-drain batch, refreshes issue to
	// banks with no pending writes, hiding them under the drain.
	ModeDARP
	// ModeSARP is Subarray Access-Refresh Parallelization (Chang et al.
	// HPCA'14): a bank's refresh is confined to one subarray per
	// command, so demand to the bank's other subarrays proceeds during
	// the whole tRFCpb window (~0.71% DRAM die cost, surfaced as a
	// metric).
	ModeSARP
)

// preset composes one Mode from the three refresh parts (refresh.go).
type preset struct {
	name     string
	gran     granularity
	order    ordering // nil: refresh disabled
	prefetch bool     // ROP prefetch on
}

// presets maps every Mode to its parts. It is the only place a Mode
// value is interpreted; everything else asks the parts.
var presets = [...]preset{
	ModeBaseline:        {"baseline", granRank, inOrder{}, false},
	ModeNoRefresh:       {"norefresh", granRank, nil, false},
	ModeROP:             {"rop", granRank, inOrder{}, true},
	ModeElastic:         {"elastic", granRank, elastic{}, false},
	ModePausing:         {"pausing", granRank, pausing{}, false},
	ModeBankRefresh:     {"bankrefresh", granSlot, inOrder{}, false},
	ModeROPBank:         {"rop-bank", granSlot, inOrder{}, true},
	ModeSubarrayRefresh: {"subarray", granBankSubarray, inOrder{}, false},
	ModeOutOfOrderBank:  {"ooo-bank", granSlot, outOfOrder{}, false},
	ModeDARP:            {"darp", granSlot, outOfOrder{drainAware: true}, false},
	ModeSARP:            {"sarp", granSlotSubarray, inOrder{}, false},
}

// valid reports whether m names a preset.
func (m Mode) valid() bool { return m >= 0 && int(m) < len(presets) }

// String implements fmt.Stringer: the preset's -mode name.
func (m Mode) String() string {
	if !m.valid() {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return presets[m].name
}

// Modes lists every refresh mode in declaration order.
func Modes() []Mode {
	ms := make([]Mode, len(presets))
	for i := range ms {
		ms[i] = Mode(i)
	}
	return ms
}

// ParseMode returns the Mode whose String is name.
func ParseMode(name string) (Mode, error) {
	names := make([]string, len(presets))
	for i, p := range presets {
		if p.name == name {
			return Mode(i), nil
		}
		names[i] = p.name
	}
	return 0, fmt.Errorf("unknown mode %q (valid: %s)", name, strings.Join(names, ", "))
}

// Refreshes reports whether the mode refreshes at all (false only for
// the idealized no-refresh bound).
func (m Mode) Refreshes() bool { return m.valid() && presets[m].order != nil }

// Prefetches reports whether the mode runs the ROP prefetch engine.
func (m Mode) Prefetches() bool { return m.valid() && presets[m].prefetch }

// Parts names the mode's refresh granularity and ordering, as the
// docs/POLICIES.md "At a glance" table lists them ("none" when the mode
// does not refresh).
func (m Mode) Parts() (granularity, ordering string) {
	if !m.Refreshes() {
		return "none", "none"
	}
	return presets[m].gran.String(), presets[m].order.String()
}

// SubarrayLock reports how long one subarray refresh (REFsa) command
// locks its subarray under the mode: tRFCpb when the mode confines a
// whole per-bank refresh to one subarray (SARP), tRFCsa otherwise.
func (m Mode) SubarrayLock(p dram.Params) event.Cycle {
	if m.valid() && presets[m].gran == granSlotSubarray {
		return p.RFCpb
	}
	return p.RFCsa
}

// Config parameterizes the controller. Table III: 64-entry read and
// write queues, FR-FCFS, writes scheduled in batches.
type Config struct {
	// Mode selects the refresh policy under simulation (baseline,
	// no-refresh, ROP, ...).
	Mode Mode

	ReadQueueCap  int // read queue capacity in requests (Table III: 64)
	WriteQueueCap int // write queue capacity in requests (Table III: 64)
	// WriteHigh and WriteLow are the write drain watermarks: draining
	// starts at WriteHigh pending writes (or when reads are idle) and
	// stops at WriteLow.
	WriteHigh, WriteLow int

	// MaxRefreshDelay bounds how long the ROP drain/prefetch phase may
	// postpone a due refresh, in tREFI units (JEDEC allows up to 8).
	MaxRefreshDelay float64

	// SRAMLatency is the bus-cycle latency of an SRAM buffer hit
	// (Table III: 3 CPU cycles ≈ 1 bus cycle; rounded up to 1).
	SRAMLatency event.Cycle

	// ROP configures the prefetch engine (ModeROP only).
	ROP core.Config

	// ClosedPage selects the closed-page row policy: banks precharge as
	// soon as no queued request wants their open row (the paper's
	// configuration is open-page; this is an ablation knob).
	ClosedPage bool

	// Capture enables request/refresh trace capture for the offline
	// refresh-blocking analysis (Figs 2-4, Table I).
	Capture bool
}

// DefaultConfig returns the paper's controller configuration for the
// given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:            mode,
		ReadQueueCap:    64,
		WriteQueueCap:   64,
		WriteHigh:       48,
		WriteLow:        16,
		MaxRefreshDelay: 0.5,
		SRAMLatency:     1,
		ROP:             core.DefaultConfig(),
	}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0 {
		return fmt.Errorf("memctrl: non-positive queue capacity")
	}
	if c.WriteLow < 0 || c.WriteHigh <= c.WriteLow || c.WriteHigh > c.WriteQueueCap {
		return fmt.Errorf("memctrl: bad write watermarks low=%d high=%d cap=%d",
			c.WriteLow, c.WriteHigh, c.WriteQueueCap)
	}
	if c.MaxRefreshDelay < 0 || c.MaxRefreshDelay > 8 {
		return fmt.Errorf("memctrl: MaxRefreshDelay %g outside [0,8]", c.MaxRefreshDelay)
	}
	if c.SRAMLatency < 0 {
		return fmt.Errorf("memctrl: negative SRAM latency")
	}
	if !c.Mode.valid() {
		return fmt.Errorf("memctrl: unknown refresh mode %d", int(c.Mode))
	}
	if presets[c.Mode].prefetch {
		return c.ROP.Validate()
	}
	return nil
}

// request is one queued transaction.
type request struct {
	loc      addr.Loc
	arrive   event.Cycle
	src      int
	seq      int64 // controller-wide age stamp; FR-FCFS "oldest" = lowest seq
	prefetch bool  // ROP fill, not a demand access
	done     func(event.Cycle)
}

// Controller drives one DRAM channel.
type Controller struct {
	cfg Config
	dev *dram.Device
	q   *event.Queue
	geo addr.Geometry
	// p is the device's timing, read once: Device.Params returns the
	// whole struct by value, too large to copy on every tick.
	p dram.Params

	// readIdx, writeIdx and fillIdx are the demand read, write and ROP
	// prefetch fill queues, each stored per (rank, bank) (see
	// bankIndex); reqSeq stamps requests with their age.
	readIdx, writeIdx, fillIdx bankIndex
	reqSeq                     int64
	draining                   bool // write batch in progress

	// The refresh parts (refresh.go): the granularity's units (each
	// unit's banks, and each bank's unit) and in-order cadence, the
	// ordering, and the ROP prefetch part's engine and window.
	gran    granularity
	units   [][]int
	unitOf  []int
	cadence event.Cycle
	order   ordering
	refresh []rankRefresh
	rop     *core.Engine
	window  prefetchWindow

	wakeAt      event.Cycle       // cycle of the currently armed tick (-1 when none)
	wakeChained bool              // the armed tick is a chained wake (see armAfterTick)
	wakeArmedAt event.Cycle       // cycle at which the armed tick was scheduled
	wakeChain   event.ChainHandle // retarget handle for the armed chained wake
	lastExact   event.Cycle       // CrossCheckWake: last computed exact wake
	tickFn      func(event.Cycle) // tick as a stored closure, reused by every arm
	spaceFn     func()            // back-pressure notification to the cores

	capture *Capture
	cmdObs  func(dram.Command) // optional command observer (protocol sanitizer)

	// sessionInsertedMark is the SRAM insert counter at the start of the
	// current fill session (consumption feedback, see startFills).
	sessionInsertedMark int64

	// ReadsServed and WritesServed count completed demand requests.
	ReadsServed, WritesServed stats.Counter
	// SRAMServed counts demand reads answered from the ROP prefetch
	// buffer instead of DRAM (paper §IV-A "revived" accesses).
	SRAMServed stats.Counter
	// PrefetchFillsIssued counts prefetch reads issued into the buffer
	// during refresh-shadow fill sessions.
	PrefetchFillsIssued stats.Counter
	ReadLatency         stats.Mean       // bus cycles, arrival to data
	ReadLatencyHist     *stats.Histogram // bus cycles, arrival to data
	// QueueFullEvents counts enqueue attempts rejected by a full
	// read/write queue (back-pressure to the cores).
	QueueFullEvents stats.Counter
	// RefreshesIssued counts REF commands across all ranks.
	RefreshesIssued        stats.Counter
	RefreshPostponedCycles stats.Mean // REF issue minus due time, bus cycles
	// FillsDropped counts prefetch fills abandoned because the fill
	// phase ended before their data returned.
	FillsDropped    stats.Counter
	FillPhaseCycles stats.Mean // fill-session length in bus cycles
	// PrefetchThrottled counts fill sessions cut short by the demand
	// queue pressure throttle.
	PrefetchThrottled stats.Counter
	// RefreshPullIns counts refreshes issued ahead of their slot's due
	// time (out-of-order scheduling's JEDEC pull-in window).
	RefreshPullIns stats.Counter
	// DrainPiggybacks counts refreshes issued during a write-drain batch
	// under DARP (write-refresh parallelization, Chang et al. HPCA'14).
	DrainPiggybacks stats.Counter
	// SARPParallelServes counts demand ACT/RD/WR commands issued to a
	// bank while one of its subarrays was refreshing — the accesses SARP
	// parallelizes with refresh.
	SARPParallelServes stats.Counter
}

// sarpDieAreaPct is the DRAM die area overhead Chang et al. HPCA'14
// report for SARP's per-subarray peripherals (§5.4), in percent;
// surfaced as a gauge so the cost rides along with the benefit.
const sarpDieAreaPct = 0.71

// readLatencyBounds are the ReadLatencyHist bucket bounds in bus
// cycles: the low end captures SRAM-buffer hits (~1 cycle) and row
// hits, the high end refresh-blocked tails (tRFC = 280 cycles at
// DDR4-1600 1x).
var readLatencyBounds = []int64{2, 8, 16, 32, 64, 128, 256, 512, 1024}

// RegisterMetrics registers the controller's service, latency and
// refresh counters into r (typically a "memctrl"-scoped sub-registry).
// Latencies and cycle means are in bus cycles (800 MHz domain). When
// the ROP engine is present its metrics land under "rop." within the
// same scope.
func (c *Controller) RegisterMetrics(r *stats.Registry) {
	r.Register("reads_served", &c.ReadsServed)
	r.Register("writes_served", &c.WritesServed)
	r.Register("sram_served", &c.SRAMServed)
	r.Register("prefetch_fills_issued", &c.PrefetchFillsIssued)
	r.Register("read_latency", &c.ReadLatency)
	r.Register("read_latency_hist", c.ReadLatencyHist)
	r.Register("queue_full_events", &c.QueueFullEvents)
	r.Register("refreshes_issued", &c.RefreshesIssued)
	r.Register("refresh_postponed_cycles", &c.RefreshPostponedCycles)
	r.Register("fills_dropped", &c.FillsDropped)
	r.Register("fill_phase_cycles", &c.FillPhaseCycles)
	r.Register("prefetch_throttled", &c.PrefetchThrottled)
	r.Register("refresh_pull_ins", &c.RefreshPullIns)
	r.Register("drain_piggybacks", &c.DrainPiggybacks)
	r.Register("sarp_parallel_cmds", &c.SARPParallelServes)
	if c.gran == granSlotSubarray {
		r.Gauge("sarp_die_area_overhead_pct", func() float64 { return sarpDieAreaPct })
	}
	if c.rop != nil {
		c.rop.RegisterMetrics(r.Sub("rop"))
	}
}

// observeRead records one completed demand read's queue-arrival-to-data
// latency in bus cycles, in both the running mean and the histogram.
func (c *Controller) observeRead(busCycles float64) {
	c.ReadLatency.Observe(busCycles)
	c.ReadLatencyHist.Observe(int64(busCycles))
}

// New builds a controller for the given device, driven by queue q. It
// rejects an invalid configuration with the validation error (a bad
// CLI flag surfaces as a clean one-line error, not a stack trace).
func New(cfg Config, dev *dram.Device, q *event.Queue) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo, p := dev.Geometry(), dev.Params()
	pre := presets[cfg.Mode]
	c := &Controller{
		cfg:             cfg,
		dev:             dev,
		q:               q,
		geo:             geo,
		p:               p,
		gran:            pre.gran,
		units:           pre.gran.units(dev),
		unitOf:          make([]int, geo.Banks),
		wakeAt:          -1,
		ReadLatencyHist: stats.NewHistogram(readLatencyBounds...),
	}
	c.tickFn = c.tick
	for u, banks := range c.units {
		for _, b := range banks {
			c.unitOf[b] = u
		}
	}
	for _, ix := range [...]*bankIndex{&c.readIdx, &c.writeIdx, &c.fillIdx} {
		ix.init(geo, c.unitOf, len(c.units))
	}
	if pre.order != nil && p.REFI > 0 {
		if err := c.gran.check(p); err != nil {
			return nil, err
		}
		c.order = pre.order
		c.cadence = c.gran.cadence(dev)
		c.refresh = make([]rankRefresh, geo.Ranks)
		for r := range c.refresh {
			rr := &c.refresh[r]
			// Stagger rank refreshes across the cadence interval so that
			// at most one rank is frozen at a time (and the shared SRAM
			// buffer is never contended).
			c.order.schedule(c, rr, c.cadence*event.Cycle(r+1)/event.Cycle(geo.Ranks))
			if c.gran.subarrays() {
				rr.unitSA = make([]int, len(c.units))
			}
		}
		if pre.prefetch {
			// The engine's observational window and freeze length follow
			// the granularity's cadence and lock.
			var err error
			if c.rop, err = core.NewEngine(cfg.ROP, geo, c.cadence, c.gran.lock(p)); err != nil {
				return nil, err
			}
			c.window = newPrefetchWindow(cfg, c.gran, dev, len(c.units))
		}
	}
	if cfg.Capture {
		c.capture = &Capture{}
	}
	// Prime the tick loop so refreshes happen even before any request
	// arrives (an idle DRAM still refreshes).
	if next, ok := c.nextRefreshDue(); ok {
		c.ensureWake(next)
	}
	return c, nil
}

// MustNew is New for statically known-good configurations (tests); it
// panics on error.
func MustNew(cfg Config, dev *dram.Device, q *event.Queue) *Controller {
	c, err := New(cfg, dev, q)
	if err != nil {
		panic(err)
	}
	return c
}

// ROP exposes the prefetch engine (nil unless the mode prefetches).
func (c *Controller) ROP() *core.Engine { return c.rop }

// Device exposes the DRAM device (for energy accounting).
func (c *Controller) Device() *dram.Device { return c.dev }

// Capture returns the trace capture, or nil when disabled.
func (c *Controller) CaptureLog() *Capture { return c.capture }

// SetCommandObserver registers fn to be called with every DRAM command
// the controller issues (ACT/PRE/RD/WR/REF), in issue order. It is the
// hook the -check protocol sanitizer attaches to; nil disables it.
func (c *Controller) SetCommandObserver(fn func(dram.Command)) { c.cmdObs = fn }

// emit records an issued command into the capture trace (when enabled)
// and forwards it to the command observer (when registered). Every
// command-issue site routes through here so the sanitizer sees the
// complete stream.
func (c *Controller) emit(cmd dram.Command) {
	if c.gran == granSlotSubarray {
		switch cmd.Kind {
		case dram.CmdACT, dram.CmdRD, dram.CmdWR:
			if c.dev.AnySubarrayRefreshing(cmd.Rank, cmd.Bank, cmd.At) {
				c.SARPParallelServes.Inc()
			}
		}
	}
	if c.capture != nil {
		c.capture.Command(cmd)
	}
	if c.cmdObs != nil {
		c.cmdObs(cmd)
	}
}

// SetSpaceNotify registers fn to run when queue space frees up after a
// rejected enqueue.
func (c *Controller) SetSpaceNotify(fn func()) { c.spaceFn = fn }

// ReadQueueLen reports current read queue occupancy.
func (c *Controller) ReadQueueLen() int { return c.readIdx.n }

// WriteQueueLen reports current write queue occupancy.
func (c *Controller) WriteQueueLen() int { return c.writeIdx.n }

// ensureWake arms a tick at cycle at unless one is already armed at or
// before it. Arming an earlier wake does not cancel the later event
// already in the queue: that event keeps its original queue position
// (its order relative to same-cycle enqueues is observable in the
// command stream) and is skipped or re-validated against wakeAt when
// it fires — see tick.
//
// When the armed wake is a chained sleep from a previous cycle (the
// controller computed "nothing to do until W" and went to sleep),
// arming an earlier cycle pulls that chained wake forward instead of
// scheduling a new event: the polling chain this emulates would have
// had a tick queued at the current cycle already, at the chain's
// per-cycle queue position, and ensureWake would have been a no-op
// against it. If the chained wake was armed during the current cycle
// (the chain's tick for this cycle already fired), a fresh plain tick
// is scheduled, exactly as the polling loop's ensureWake would have.
func (c *Controller) ensureWake(at event.Cycle) {
	now := c.q.Now()
	if at < now {
		at = now
	}
	if c.wakeAt >= 0 && c.wakeAt <= at {
		return
	}
	if debugWake != nil {
		debugWake("arm", now, at, int(c.wakeAt))
	}
	if c.wakeChained && c.wakeAt > at {
		if c.wakeArmedAt < at && c.q.RetargetChained(c.wakeChain, at) {
			c.wakeAt = at
			return
		}
	}
	c.wakeChained = false
	c.wakeAt = at
	c.q.Schedule(at, c.tickFn)
}

// debugWake is a test hook.
var debugWake func(what string, now, at event.Cycle, wakeAt int)

// EnqueueRead submits a demand read. done runs when the data is
// available. It reports false when the read queue is full (the paper's
// command-queue-seizure backpressure).
func (c *Controller) EnqueueRead(loc addr.Loc, src int, done func(event.Cycle)) bool {
	now := c.q.Now()
	if c.readIdx.n >= c.cfg.ReadQueueCap {
		c.QueueFullEvents.Inc()
		return false
	}
	if c.capture != nil {
		c.capture.Request(now, loc.Rank, true)
	}
	if c.rop != nil {
		c.rop.OnRequest(loc, true, now)
		// A read arriving while its rank is frozen — or while the buffer
		// already holds the line ahead of the freeze — is served from
		// the SRAM buffer (the paper's central mechanism).
		frozen := c.dev.Refreshing(loc.Rank, now)
		if c.gran.locksBanks() {
			frozen = c.dev.BankRefreshing(loc.Rank, loc.Bank, now)
		}
		if c.rop.ProbeRead(loc, now, frozen) {
			c.serveFromSRAM(now, now, done)
			return true
		}
	}
	c.pushRequest(&c.readIdx, &request{loc: loc, arrive: now, src: src, done: done})
	if CrossCheckWake {
		c.lastExact = now
	}
	c.ensureWake(now)
	return true
}

// EnqueueWrite submits a posted write. It reports false when the write
// queue is full.
func (c *Controller) EnqueueWrite(loc addr.Loc, src int) bool {
	now := c.q.Now()
	if c.writeIdx.n >= c.cfg.WriteQueueCap {
		c.QueueFullEvents.Inc()
		return false
	}
	if c.capture != nil {
		c.capture.Request(now, loc.Rank, false)
	}
	if c.rop != nil {
		c.rop.OnRequest(loc, false, now)
		c.rop.OnWrite(loc)
	}
	c.pushRequest(&c.writeIdx, &request{loc: loc, arrive: now, src: src})
	if CrossCheckWake {
		c.lastExact = now
	}
	c.ensureWake(now)
	return true
}

// pushRequest stamps req's age and adds it to the queue ix. Every
// enqueue site routes through here, so seqs grow in add order.
func (c *Controller) pushRequest(ix *bankIndex, req *request) {
	c.reqSeq++
	req.seq = c.reqSeq
	ix.add(req)
}

// Idle reports whether the controller has no pending work at all.
func (c *Controller) Idle() bool {
	if c.readIdx.n > 0 || c.writeIdx.n > 0 || c.fillIdx.n > 0 {
		return false
	}
	for r := range c.refresh {
		if c.refresh[r].phase != refIdle {
			return false
		}
	}
	return true
}

// tick is one scheduling step: at most one command on the channel per
// bus cycle, refresh actions first, then FR-FCFS. Unlike the original
// per-cycle polling loop (which re-armed now+1 whenever any work was
// pending), ticks only fire at cycles where the controller can act;
// armNextWake computes the next such cycle exactly (see wake.go), so
// frozen and timing-stalled cycles are slept through.
func (c *Controller) tick(now event.Cycle) {
	if now != c.wakeAt {
		// Superseded wake: a later ensureWake armed a different cycle
		// after this event was queued (or another tick already claimed
		// this cycle). Skip explicitly — no work may run off a
		// superseded wake; TestNoSupersededWakeDoesWork enforces this.
		if debugWake != nil {
			debugWake("skip", now, now, int(c.wakeAt))
		}
		return
	}
	c.wakeAt = -1
	c.wakeChained = false
	if debugWake != nil {
		debugWake("fire", now, now, int(now))
	}

	var preDrain bool
	var prePhases []refPhase
	if CrossCheckWake {
		preDrain = c.draining
		for r := range c.refresh {
			prePhases = append(prePhases, c.refresh[r].phase)
		}
	}

	issued := c.refreshStep(now)
	if !issued {
		issued = c.scheduleStep(now)
	}
	if !issued && c.cfg.ClosedPage {
		issued = c.closeIdleRows(now)
	}
	if CrossCheckWake {
		changed := issued || preDrain != c.draining
		for r := range c.refresh {
			changed = changed || prePhases[r] != c.refresh[r].phase
		}
		if changed && c.lastExact > now {
			panic(fmt.Sprintf("exact wake missed work: now=%d exact=%d issued=%v mode=%v draining %v->%v",
				now, c.lastExact, issued, c.cfg.Mode, preDrain, c.draining))
		}
		c.lastExact = c.nextWake(now)
		if issued || !c.Idle() {
			c.ensureWake(now + 1)
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
		return
	}
	c.armAfterTick(now, issued)
}

// CrossCheckWake is a validation hook for the exact wake discipline:
// when set, every tick re-arms at the original per-cycle polling
// cadence (so simulations still produce bit-identical results) and
// panics if the exact wake computed after the previous tick would have
// slept past a cycle where this tick issued a command or advanced
// controller state. TestCrossCheckWake runs full simulations in every
// refresh mode under it. Not safe to toggle mid-run.
var CrossCheckWake bool

// completeRead finishes a demand read or prefetch fill at dataAt.
func (c *Controller) completeRead(req *request, dataAt event.Cycle) {
	r, b := req.loc.Rank, req.loc.Bank
	if req.prefetch {
		c.PrefetchFillsIssued.Inc()
		c.bufferFill(req.loc, dataAt)
		// Read merging: queued demand reads for the same line ride the
		// fill's data burst instead of fetching from DRAM again. They sit
		// in the line's bank list, oldest first.
		merged := false
		for l, i := c.readIdx.list(r, b), 0; i < len(l); {
			dr := l[i]
			if dr.loc != req.loc {
				i++
				continue
			}
			c.ReadsServed.Inc()
			c.observeRead(float64(dataAt - dr.arrive))
			if dr.done != nil {
				c.q.Schedule(dataAt, dr.done)
			}
			c.readIdx.remove(dr)
			l = c.readIdx.list(r, b)
			merged = true
		}
		if merged {
			c.notifySpace()
		}
		return
	}
	c.ReadsServed.Inc()
	c.observeRead(float64(dataAt - req.arrive))
	if req.done != nil {
		c.q.Schedule(dataAt, req.done)
	}
	// Symmetric merge: a pending prefetch fill for the same line rides
	// this demand burst into the buffer.
	for _, f := range c.fillIdx.list(r, b) {
		if f.loc == req.loc {
			c.removeReq(&c.fillIdx, f)
			c.bufferFill(req.loc, dataAt)
			break
		}
	}
}

// bufferFill inserts the line at loc into the SRAM buffer when its data
// arrives at dataAt, provided loc's rank owns the buffer now and still
// does then (the refresh may complete and release it in between).
func (c *Controller) bufferFill(loc addr.Loc, dataAt event.Cycle) {
	if c.rop == nil {
		return
	}
	key, buf := c.rop.LineKey(loc), c.rop.Buffer()
	if buf.Owner() == loc.Rank {
		c.q.Schedule(dataAt, func(event.Cycle) {
			if buf.Owner() == loc.Rank {
				buf.Insert(key)
			}
		})
	}
}

// serveFromSRAM completes a demand read that arrived at arrive from the
// SRAM buffer at now.
func (c *Controller) serveFromSRAM(arrive, now event.Cycle, done func(event.Cycle)) {
	c.SRAMServed.Inc()
	c.ReadsServed.Inc()
	fin := now + c.cfg.SRAMLatency
	c.observeRead(float64(fin - arrive))
	if done != nil {
		c.q.Schedule(fin, done)
	}
}

// scheduleStep picks and issues at most one demand/fill command using
// FR-FCFS: row hits first (oldest first), then the oldest request's
// bank-preparation command. It reports whether a command was issued.
func (c *Controller) scheduleStep(now event.Cycle) bool {
	// Choose the candidate set: prefetch fills and demand reads compete
	// first; writes only during a drain batch or when reads are absent.
	c.draining = c.nextDrainState(c.draining)

	// Demand reads come first; prefetch fills ride in leftover slots
	// (paper §IV-D: drained requests are issued, prefetches
	// opportunistically alongside). An active fill window takes priority
	// over write drain batches: fills have a hard deadline before the
	// refresh freezes the rank, writes are posted and can wait.
	if !c.draining || c.fillIdx.n > 0 {
		if c.issueNext(&c.readIdx, now, false) {
			return true
		}
		if c.fillIdx.n > 0 && c.issueNext(&c.fillIdx, now, false) {
			return true
		}
		if c.draining {
			return c.issueNext(&c.writeIdx, now, true)
		}
		return false
	}
	if c.issueNext(&c.writeIdx, now, true) {
		return true
	}
	// Drain mode with nothing issuable: let reads through anyway so a
	// blocked write bank does not stall ready reads.
	return c.issueNext(&c.readIdx, now, false)
}

// issueNext applies FR-FCFS to the queue ix at now: issueFrom picks a
// request and issue commits its next command. It reports whether a
// command was issued (RD/WR data, ACT, or PRE).
func (c *Controller) issueNext(ix *bankIndex, now event.Cycle, isWrite bool) bool {
	req, kind := c.issueFrom(ix, now, isWrite, ix != &c.fillIdx)
	if req == nil {
		return false
	}
	c.issue(ix, req, kind, now)
	return true
}

// issueFrom is FR-FCFS over the queue ix at now, without side effects: the
// oldest row hit whose column command (RD, or WR when isWrite) is legal
// now, else the oldest request whose bank-preparation command (PRE for a
// conflicting open row, ACT for a precharged bank) is legal now. A row
// hit whose column command is not yet legal waits rather than churns,
// so a bank's preparation candidate is its oldest miss. It returns the
// request and the command, or nil.
//
// One walk over the active set visits only banks with work, and each
// bank's memo gives its oldest hit and miss. The winner is the lowest
// seq and seqs are unique, so the order of visits cannot change it.
// Demand skips what refresh blocks: a frozen rank, the rank or unit its
// refresh is quiescing (closingUnit), and, when the granularity locks
// banks one by one, a locked bank.
func (c *Controller) issueFrom(ix *bankIndex, now event.Cycle, isWrite, demand bool) (*request, dram.CommandKind) {
	locks := demand && c.gran.locksBanks()
	var hit, prep *request
	prepKind := dram.CmdACT
	for _, s := range ix.active {
		r, b := ix.rankBank(s)
		if c.dev.Refreshing(r, now) {
			continue
		}
		if skip := c.closingUnit(r, demand); skip == allUnits || skip >= 0 && c.unitOf[b] == skip ||
			locks && c.dev.BankRefreshing(r, b, now) {
			continue
		}
		open := c.dev.OpenRow(r, b)
		h, m := ix.classes(s, open)
		if h != nil && (hit == nil || h.seq < hit.seq) && c.columnReady(now, r, b, isWrite) {
			hit = h
		}
		if hit != nil || m == nil || prep != nil && m.seq > prep.seq {
			continue // any legal hit beats any preparation
		}
		if open >= 0 {
			if c.dev.EarliestPRE(now, r, b) == now {
				prep, prepKind = m, dram.CmdPRE
			}
			continue
		}
		if c.dev.EarliestACT(now, r, b) != now {
			continue // no row of this bank can activate yet
		}
		// Only a subarray refresh lock makes ACT legality row-dependent:
		// the oldest request whose subarray is free wins.
		for _, req := range ix.lists[s] {
			if prep != nil && req.seq > prep.seq {
				break
			}
			if c.dev.EarliestACTRow(now, r, b, req.loc.Row) == now {
				prep, prepKind = req, dram.CmdACT
				break
			}
		}
	}
	switch {
	case hit != nil && isWrite:
		return hit, dram.CmdWR
	case hit != nil:
		return hit, dram.CmdRD
	}
	return prep, prepKind
}

// columnReady reports whether the bank's column command is legal now.
func (c *Controller) columnReady(now event.Cycle, r, b int, isWrite bool) bool {
	if isWrite {
		return c.dev.EarliestWR(now, r, b) == now
	}
	return c.dev.EarliestRD(now, r, b) == now
}

// issue commits the command issueFrom chose for req from the queue ix. A
// column command retires req; PRE and ACT leave it queued.
func (c *Controller) issue(ix *bankIndex, req *request, kind dram.CommandKind, now event.Cycle) {
	r, b := req.loc.Rank, req.loc.Bank
	switch kind {
	case dram.CmdWR:
		c.dev.IssueWR(now, r, b)
		c.emit(dram.Command{Kind: dram.CmdWR, At: now, Rank: r, Bank: b, Col: req.loc.Col})
		c.WritesServed.Inc()
		c.removeReq(ix, req)
	case dram.CmdRD:
		dataAt := c.dev.IssueRD(now, r, b)
		c.emit(dram.Command{Kind: dram.CmdRD, At: now, Rank: r, Bank: b, Col: req.loc.Col})
		c.completeRead(req, dataAt)
		c.removeReq(ix, req)
	case dram.CmdPRE:
		c.dev.IssuePRE(now, r, b)
		c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: r, Bank: b})
	case dram.CmdACT:
		c.dev.IssueACT(now, r, b, req.loc.Row)
		c.emit(dram.Command{Kind: dram.CmdACT, At: now, Rank: r, Bank: b, Row: req.loc.Row})
	}
}

// removeReq deletes req from the queue ix and, for demand queues, wakes
// any core waiting for queue space.
func (c *Controller) removeReq(ix *bankIndex, req *request) {
	ix.remove(req)
	if ix != &c.fillIdx {
		c.notifySpace()
	}
}

func (c *Controller) notifySpace() {
	if c.spaceFn != nil {
		c.spaceFn()
	}
}

// closeIdleRows implements the closed-page policy: precharge one open
// bank whose row no queued request wants. It reports whether a PRE was
// issued; pending-but-illegal PREs are retried via closePageWake.
func (c *Controller) closeIdleRows(now event.Cycle) bool {
	for r := 0; r < c.geo.Ranks; r++ {
		for b := 0; b < c.geo.Banks; b++ {
			open := c.dev.OpenRow(r, b)
			if open < 0 || c.rowWanted(r, b, open) {
				continue
			}
			if c.dev.EarliestPRE(now, r, b) == now {
				c.dev.IssuePRE(now, r, b)
				c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: r, Bank: b})
				return true
			}
		}
	}
	return false
}

// rowWanted reports whether any queued request targets the bank's open
// row open: whether any queue's memo holds a hit for it.
func (c *Controller) rowWanted(rank, bank int, open int64) bool {
	s := c.readIdx.slot(rank, bank)
	for _, ix := range [...]*bankIndex{&c.readIdx, &c.writeIdx, &c.fillIdx} {
		if hit, _ := ix.classes(s, open); hit != nil {
			return true
		}
	}
	return false
}

// SetDebugWake installs the wake test hook (diagnostics).
func SetDebugWake(fn func(what string, now, at int64, wakeAt int)) {
	if fn == nil {
		debugWake = nil
		return
	}
	debugWake = func(what string, now, at event.Cycle, wakeAt int) {
		fn(what, int64(now), int64(at), wakeAt)
	}
}
