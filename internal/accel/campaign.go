package accel

import (
	"bytes"
	"fmt"
	"sync"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/obs"
)

// CampaignConfig drives a statistical fault-injection campaign against one
// accelerator memory component (the Figure 14/17 experiments).
type CampaignConfig struct {
	Design *Design
	Task   Task
	Target string // bank name
	Model  core.Model
	Faults int
	Seed   int64
	// TargetMargin, Confidence, MinFaults, MaxFaults and BatchSize select
	// adaptive confidence-targeted sizing exactly as in campaign.Config:
	// an early stop leaves an exact prefix of the fixed-budget record
	// stream.
	TargetMargin, Confidence        float64
	MinFaults, MaxFaults, BatchSize int
	// WatchdogFactor bounds faulty tasks at factor × golden cycles.
	WatchdogFactor float64
	// WindowOverride, when non-zero, draws injection cycles from
	// [1, WindowOverride] instead of the task's own duration. Design-space
	// sweeps use the slowest configuration's window so every design sees
	// the same fault population (the paper's same-masks comparability
	// requirement); faults landing after a faster design completes are
	// architecturally masked.
	WindowOverride uint64
	// Workers bounds campaign parallelism; 0 = GOMAXPROCS. Results are
	// bit-identical for every worker count: each mask's coordinates derive
	// purely from (Seed, mask index), never from the execution schedule.
	Workers int
	// LadderRungs selects the checkpoint ladder: besides the pristine
	// not-yet-started harness, the fault-free task is snapshotted mid-run
	// at LadderRungs evenly spaced cycles inside the injection window, and
	// every transient run forks from the latest rung strictly before its
	// injection cycle, replaying only the residual prefix. 0 keeps the
	// single pristine checkpoint. Verdicts are bit-identical for every
	// value (flips apply inside Tick, so rungs stop strictly before the
	// injection cycle); permanent faults always use the pristine base —
	// stuck-at bits must corrupt DMA-in too.
	LadderRungs int
	// OnVerdict, Trace and Profile observe the campaign as in
	// campaign.Config; none of them changes a verdict.
	OnVerdict func(index int, v classify.Verdict)
	Trace     obs.Tracer
	Profile   *obs.Profiler
}

// CampaignGolden bundles the fault-free phase of an accelerator campaign:
// the golden task execution results and the pristine harness faulty runs
// fork from. It depends only on (Design, Task) — never on the target
// component, model or seed — so one CampaignGolden backs every component
// campaign of a sweep over the same design. Immutable after
// PrepareGolden; safe for concurrent RunCampaignWithGolden calls.
type CampaignGolden struct {
	Cycles uint64
	Output []byte

	base *Standalone

	// Checkpoint ladders, built lazily and memoized per (rungs, window)
	// pair — the injection window varies with WindowOverride and rung
	// placement follows it. Guarded by mu; rung snapshots are frozen once
	// built and shared read-only by forks.
	mu      sync.Mutex
	ladders map[ladderKey][]accelRung
}

type ladderKey struct {
	k      int
	window uint64
}

// accelRung is one ladder checkpoint: a frozen harness snapshot at a
// cluster cycle inside the injection window (cycle 0 = the pristine
// not-yet-started base).
type accelRung struct {
	sys   *Standalone
	cycle uint64
}

// ladder returns the checkpoint ladder for k mid-window rungs over the
// given injection window, building it on first use by replaying the
// fault-free task once and snapshotting at evenly spaced cycles. The
// replay stops at task completion: faults drawn past it (WindowOverride
// beyond a fast design's duration) are architecturally masked and need no
// deeper rung. Rung 0 is always the pristine base.
func (g *CampaignGolden) ladder(k int, window uint64) []accelRung {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := ladderKey{k: k, window: window}
	if rs, ok := g.ladders[key]; ok {
		return rs
	}
	rungs := []accelRung{{sys: g.base, cycle: 0}}
	if k > 0 {
		walker := g.base.Fork()
		walker.Cluster.Start()
		for i := 1; i <= k; i++ {
			target := uint64(i) * window / uint64(k+1)
			if target <= rungs[len(rungs)-1].cycle {
				continue
			}
			for !walker.Cluster.Done() && walker.Cluster.Cycle() < target {
				walker.Cluster.Tick()
			}
			if walker.Cluster.Done() {
				break
			}
			rungs = append(rungs, accelRung{sys: walker.snapshot(), cycle: walker.Cluster.Cycle()})
		}
	}
	if g.ladders == nil {
		g.ladders = map[ladderKey][]accelRung{}
	}
	g.ladders[key] = rungs
	return rungs
}

// PrepareGolden executes the fault-free accelerator task once and builds
// the pristine fork base.
func PrepareGolden(d *Design, task Task) (*CampaignGolden, error) {
	golden, err := NewStandalone(d, task)
	if err != nil {
		return nil, err
	}
	if err := golden.Run(50_000_000); err != nil {
		return nil, fmt.Errorf("accel: golden run: %w", err)
	}
	out, err := golden.Output()
	if err != nil {
		return nil, err
	}
	// base is the pristine harness faulty runs fork from: arguments bound,
	// DMA buffers staged in host memory, task not yet started. It plays
	// the role of the CPU campaign's checkpoint snapshot.
	base, err := NewStandalone(d, task)
	if err != nil {
		return nil, fmt.Errorf("accel: campaign base: %w", err)
	}
	return &CampaignGolden{Cycles: golden.Cluster.TaskCycles(), Output: out, base: base}, nil
}

// Record is the outcome of one accelerator fault injection.
type Record struct {
	Fault   core.Fault
	Verdict classify.Verdict
}

// ForkStats counts harness-forking activity over one accelerator
// campaign. The harness has no caches, so CacheSetsRestored stays 0.
type ForkStats = dispatch.ForkStats

// CampaignResult aggregates one accelerator campaign. Records holds the
// per-fault verdicts in mask order, independent of the execution
// schedule; the embedded Summary carries the counts, margins,
// adaptive-sizing outcome and fork counters.
type CampaignResult struct {
	Target       string
	GoldenCycles uint64
	GoldenOutput []byte
	TargetBits   uint64
	Records      []Record
	dispatch.Summary
}

// AVF returns the component's architectural vulnerability factor.
func (r *CampaignResult) AVF() float64 { return r.Counts.AVF() }

// RunCampaign executes the campaign. Accelerator tasks are short, so each
// faulty run re-executes the whole task with a flip scheduled at a random
// cycle of the task window — injections land during DMA-in, compute, or
// DMA-out, exactly the full-task window the paper's DSE insight relies on.
//
// The campaign parallelizes like the CPU side (internal/campaign): mask
// coordinates are derived per index via the shared splitmix64 scheme in
// internal/core, masks fan out over a worker pool, and each worker forks
// the pristine golden harness once, rolling it back between masks. Every
// schedule — one worker, N workers, any ladder depth — produces the same
// Records, Counts and AVF.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	sp := cfg.Profile.NewLane("golden").Begin(obs.PhaseGolden)
	g, err := PrepareGolden(cfg.Design, cfg.Task)
	sp.End()
	if err != nil {
		return nil, err
	}
	return RunCampaignWithGolden(cfg, g)
}

// RunCampaignWithGolden executes the injection phase of an accelerator
// campaign against an already-prepared golden reference (the sweep
// orchestrator's golden cache). cfg.Design and cfg.Task must match the
// ones g was prepared with; results are bit-identical to RunCampaign with
// the same CampaignConfig.
func RunCampaignWithGolden(cfg CampaignConfig, g *CampaignGolden) (*CampaignResult, error) {
	plan, err := dispatch.NewPlan(dispatch.Options{
		Faults: cfg.Faults, Workers: cfg.Workers,
		TargetMargin: cfg.TargetMargin, Confidence: cfg.Confidence,
		MinFaults: cfg.MinFaults, MaxFaults: cfg.MaxFaults, BatchSize: cfg.BatchSize,
		LadderRungs: cfg.LadderRungs, OnVerdict: cfg.OnVerdict, Profile: cfg.Profile,
	})
	if err != nil {
		return nil, fmt.Errorf("accel: %w", err)
	}
	e, err := newCampaignEngine(cfg, g)
	if err != nil {
		return nil, err
	}
	// Derive the whole fault population up front: coordinates are a pure
	// function of (Seed, index), so this costs a few splitmix64 draws per
	// mask and lets the ladder sort dispatch order by injection cycle.
	e.faults = make([]core.Fault, plan.Budget)
	for i := range e.faults {
		e.faults[i] = e.fault(i)
	}
	// Checkpoint ladder: transient runs fork from the deepest rung strictly
	// before their injection cycle (flips apply inside Tick, so a rung at
	// exactly the injection cycle would skip the application tick).
	// Permanent models keep the pristine base — stuck-ats must corrupt
	// DMA-in.
	if cfg.LadderRungs > 0 && !cfg.Model.Permanent() {
		sp := cfg.Profile.NewLane("ladder").Begin(obs.PhaseLadder)
		e.rungs = g.ladder(cfg.LadderRungs, e.window)
		sp.End()
	}

	verdicts, sum, err := dispatch.Run(plan, e)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{
		Target:       cfg.Target,
		GoldenCycles: g.Cycles,
		GoldenOutput: g.Output,
		TargetBits:   e.bits,
		Records:      make([]Record, len(verdicts)),
		Summary:      sum,
	}
	for i, v := range verdicts {
		res.Records[i] = Record{Fault: e.faults[i], Verdict: v}
	}
	res.Margin = core.MarginFor(e.bits, len(verdicts), plan.Z)
	res.Forking.Rungs = len(e.rungs) - 1
	return res, nil
}

// campaignEngine is the per-campaign setup the run and explain paths share —
// target bank, injection window, watchdog budget, fault derivation — and
// the campaign's adapter to the shared dispatcher.
type campaignEngine struct {
	cfg     CampaignConfig
	g       *CampaignGolden
	bankIdx int
	bits    uint64
	// window bounds the drawn injection cycles; budget is the watchdog's
	// cycle bound on every faulty task.
	window, budget uint64
	faults         []core.Fault
	rungs          []accelRung
}

func newCampaignEngine(cfg CampaignConfig, g *CampaignGolden) (*campaignEngine, error) {
	gb, err := g.base.Cluster.Bank(cfg.Target)
	if err != nil {
		return nil, err
	}
	factor := cfg.WatchdogFactor
	if factor <= 1 {
		factor = 4
	}
	e := &campaignEngine{
		cfg: cfg, g: g, bits: gb.BitLen(),
		window: g.Cycles,
		budget: uint64(float64(g.Cycles)*factor) + 5000,
		rungs:  []accelRung{{sys: g.base, cycle: 0}},
	}
	for i, b := range g.base.Cluster.Banks() {
		if b == gb {
			e.bankIdx = i
		}
	}
	if cfg.WindowOverride > 0 {
		e.window = cfg.WindowOverride
	}
	return e, nil
}

// fault derives fault i of the campaign. [1, window+1) reproduces the
// historical "window w" population bit for bit (see core.DeriveFault).
func (e *campaignEngine) fault(i int) core.Fault {
	return core.DeriveFault(e.cfg.Seed, i, e.cfg.Target, e.cfg.Model, e.bits, 1, e.window+1)
}

func (e *campaignEngine) Rung(i int) int {
	r := 0
	for ri := 1; ri < len(e.rungs) && e.rungs[ri].cycle < e.faults[i].Cycle; ri++ {
		r = ri
	}
	return r
}

func (e *campaignEngine) Fork(r int) *Standalone { return e.rungs[r].sys.Fork() }

func (e *campaignEngine) Replayed(i, r int) uint64 {
	if f := e.faults[i]; !f.Model.Permanent() && f.Cycle > e.rungs[r].cycle {
		return f.Cycle - e.rungs[r].cycle
	}
	return 0
}

func (e *campaignEngine) Run(s *Standalone, i, _ int, lane *obs.Lane) (classify.Verdict, error) {
	return runFaulty(s, e.bankIdx, e.faults[i], e.budget, e.g.Output, e.cfg.Trace, lane, int64(i)), nil
}

// runFaulty drives one faulty task on s — a fresh or reset fork of any
// ladder rung (the test-only reference passes a freshly built harness);
// all sit on the golden path before the injection cycle — applies the
// fault, runs under the watchdog budget and classifies. When a
// tracer is armed the cluster reports flips and phase transitions and this
// driver brackets the run with arming and verdict events; a nil tracer
// costs one pointer store plus the cluster's per-site nil checks.
//
// lane/id, when profiling, attribute the pre-injection replay ticks and
// the remaining faulty ticks to separate spans. The replay segment is a
// plain split of the single tick loop — the conditions compose to
// exactly the original loop — so the tick sequence (and the verdict) is
// identical whether or not a lane is armed.
func runFaulty(s *Standalone, bankIdx int, f core.Fault, budget uint64, goldenOut []byte, tr obs.Tracer, lane *obs.Lane, id int64) classify.Verdict {
	s.Cluster.Trace = tr
	target := s.Cluster.Banks()[bankIdx].spec.Name
	if f.Model.Permanent() {
		// Stuck-at faults hold for the whole run: applied before Start so
		// they corrupt DMA-in writes too.
		s.Cluster.Banks()[bankIdx].Stick(f.Bit, stuckVal(f.Model))
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindFaultArmed, Target: target, Bit: f.Bit, Detail: f.Model.String()})
			tr.Emit(obs.Event{Kind: obs.KindStuckApplied, Target: target, Bit: f.Bit, Detail: "held for the whole task"})
		}
	} else {
		s.Cluster.ScheduleFlip(bankIdx, f.Bit, f.Cycle)
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindFaultArmed, Target: target, Bit: f.Bit, Detail: fmt.Sprintf("%s at cycle %d", f.Model, f.Cycle)})
		}
	}
	// A checkpoint-ladder restore resumes mid-task; Start would rewind the
	// phase machine to DMA-in and replay from scratch.
	if !s.Cluster.Started() {
		s.Cluster.Start()
	}
	if !f.Model.Permanent() && f.Cycle > 0 {
		// Residual pre-injection replay: ticks strictly before the one
		// that lands on f.Cycle (flips apply post-increment inside Tick,
		// so the injection tick itself counts as faulty execution).
		rsp := lane.BeginID(obs.PhaseReplay, id)
		for !s.Cluster.Done() && s.Cluster.Cycle() < budget && s.Cluster.Cycle()+1 < f.Cycle {
			s.Cluster.Tick()
		}
		rsp.End()
	}
	fsp := lane.BeginID(obs.PhaseFaulty, id)
	for !s.Cluster.Done() && s.Cluster.Cycle() < budget {
		s.Cluster.Tick()
	}
	fsp.End()
	csp := lane.BeginID(obs.PhaseClassify, id)
	v := classifyFaulty(s, budget, goldenOut)
	csp.End()
	if tr != nil {
		if v.CrashCode == classify.WatchdogCrashCode {
			tr.Emit(obs.Event{Cycle: s.Cluster.Cycle(), Kind: obs.KindWatchdog, Target: target, Detail: fmt.Sprintf("budget %d cycles exhausted", budget)})
		}
		tr.Emit(obs.Event{Cycle: v.Cycles, Kind: obs.KindVerdict, Target: target, Detail: v.Outcome.String()})
	}
	return v
}

// classifyFaulty maps the post-run cluster state to a verdict.
func classifyFaulty(s *Standalone, budget uint64, goldenOut []byte) classify.Verdict {
	switch {
	case !s.Cluster.Done():
		return classify.Verdict{Outcome: classify.Crash, CrashCode: classify.WatchdogCrashCode, Cycles: s.Cluster.Cycle()}
	case s.Cluster.Faulted() != nil:
		return classify.Verdict{Outcome: classify.Crash, CrashCode: "accel-fault", Cycles: s.Cluster.Cycle()}
	}
	out, err := s.Output()
	if err != nil || !bytes.Equal(out, goldenOut) {
		return classify.Verdict{Outcome: classify.SDC, Cycles: s.Cluster.Cycle()}
	}
	return classify.Verdict{Outcome: classify.Masked, Cycles: s.Cluster.Cycle()}
}

func stuckVal(m core.Model) uint8 {
	if m == core.StuckAt1 {
		return 1
	}
	return 0
}
