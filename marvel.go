// Package marvel is a Go reproduction of gem5-MARVEL (HPCA 2024), the
// first consolidated microarchitecture-level fault-injection framework for
// heterogeneous SoCs. The library bundles, all built from scratch:
//
//   - a cycle-level out-of-order CPU model executing three simplified
//     64-bit ISAs (Arm-, x86- and RISC-V-flavoured) through real caches,
//     with decode running on raw instruction bytes;
//   - a gem5-SALAM-style accelerator engine (dataflow kernels over
//     scratchpads, register banks, MMRs, DMA, interrupts) plus the eight
//     MachSuite designs of the paper's Table IV;
//   - the fifteen MiBench-style workloads of the paper's figures, compiled
//     per ISA through a small IR toolchain;
//   - the MARVEL fault framework itself: transient and permanent fault
//     models, statistical mask generation, parallel campaign execution
//     with checkpoint forking and early termination, Masked/SDC/Crash and
//     HVF classification, and AVF/wAVF/HVF/OPF metrics.
//
// This root package is the stable facade: examples, tools and downstream
// users drive campaigns through it without touching internal packages.
package marvel

import (
	"fmt"
	"time"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/metrics"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// Supported ISA names.
const (
	ISAArm   = "arm"
	ISAX86   = "x86"
	ISARiscv = "riscv"
)

// ISAs returns the ISA names in the paper's figure order.
func ISAs() []string { return []string{ISAArm, ISAX86, ISARiscv} }

// FaultModel selects the injected fault type (the paper's Table III).
type FaultModel string

// Fault models.
const (
	Transient FaultModel = "transient"
	StuckAt0  FaultModel = "stuck-at-0"
	StuckAt1  FaultModel = "stuck-at-1"
)

func (m FaultModel) internal() (core.Model, error) {
	switch m {
	case "", Transient:
		return core.Transient, nil
	case StuckAt0:
		return core.StuckAt0, nil
	case StuckAt1:
		return core.StuckAt1, nil
	}
	return 0, fmt.Errorf("marvel: unknown fault model %q", m)
}

// WorkloadNames lists the fifteen MiBench-style benchmarks.
func WorkloadNames() []string { return workloads.Names() }

// DesignNames lists the eight MachSuite accelerator designs.
func DesignNames() []string {
	var out []string
	for _, s := range machsuite.All() {
		out = append(out, s.Name)
	}
	return out
}

// CPUTargets lists the CPU-side injection targets.
func CPUTargets() []string { return append([]string(nil), campaign.CPUTargets...) }

// Component describes one accelerator injection target (Table IV).
type Component struct {
	Design     string
	Name       string
	PaperBytes int
	ModelBytes int
	Kind       string // "SPM" or "RegBank"
}

// TableIV returns the accelerator component inventory of the paper's
// Table IV.
func TableIV() []Component {
	var out []Component
	for _, c := range machsuite.TableIV() {
		out = append(out, Component{
			Design:     c.Design,
			Name:       c.Name,
			PaperBytes: c.PaperBytes,
			ModelBytes: c.ModelBytes,
			Kind:       c.Kind.String(),
		})
	}
	return out
}

// CampaignOptions configures a CPU fault-injection campaign.
type CampaignOptions struct {
	ISA      string // "arm", "x86", "riscv"
	Workload string // one of WorkloadNames()
	// Target is one of CPUTargets(), or a "+"-joined combination of them
	// ("prf+rob+iq") selecting the paper's multi-structure mode: every
	// mask then carries one fault in each listed structure.
	Target string
	Model  FaultModel
	Faults int // statistical sample size (paper default: 1000)
	Seed   int64

	// TargetMargin > 0 enables adaptive confidence-targeted sizing: the
	// campaign draws masks in batches from the same prefix-stable stream
	// and stops once the Wilson half-width on the AVF falls to this
	// margin, making Faults (or MaxFaults) an upper bound. The executed
	// records are bit-identical to the first N of the fixed-budget run.
	TargetMargin float64
	// Confidence is the z quantile for adaptive stopping and reported
	// margins; 0 keeps 1.96 (95%).
	Confidence float64
	// MinFaults floors adaptive campaigns: never stop before this many
	// injections, however narrow the interval.
	MinFaults int
	// MaxFaults, when > 0, replaces Faults as the adaptive budget cap.
	MaxFaults int

	// BitsPerFault > 1 selects multi-bit masks (spatial multi-fault
	// mode); 0 or 1 is the single-bit default.
	BitsPerFault int
	// ValidOnly draws faults over live entries only.
	ValidOnly bool
	// HVF additionally classifies every run at the commit stage.
	HVF bool
	// EarlyTermination enables the §IV-B campaign optimizations.
	EarlyTermination bool
	// WatchdogFactor bounds faulty runs at factor × golden cycles
	// (expiry classifies as Crash); values <= 1 keep the default of 3.
	WatchdogFactor float64
	// PhysRegs overrides the physical register file size (Figure 15);
	// 0 keeps the Table II value of 128.
	PhysRegs int
	// Workers bounds campaign parallelism; 0 = GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
	// LadderRungs snapshots the golden run at this many evenly spaced
	// cycles inside the injection window and forks each transient run from
	// the nearest rung before its injection cycle, replaying only the
	// residual prefix. 0 keeps the single window-start checkpoint; results
	// are bit-identical for every value.
	LadderRungs int
	// Preset selects the hardware configuration: "" or "table2" is the
	// paper's Table II; "fast" is the scaled-down test preset.
	Preset string
	// Metrics, when non-nil, receives live verdict-mix and fork counters
	// as the campaign runs (the registry behind the CLI's -debug-addr
	// endpoint). Never serialized: a campaign submitted to the job
	// service gets a per-job registry from the server instead.
	Metrics *obs.Registry `json:"-"`
	// Profile, when non-nil, attributes the campaign's wall-clock to
	// phases and per-worker lanes (the CLI's -timeline flag attaches a
	// Chrome trace-event sink to it). Purely observational: verdicts are
	// bit-identical with and without it. Never serialized; a campaign
	// submitted to the job service gets a per-job profiler instead.
	Profile *obs.Profiler `json:"-"`
}

// Validate resolves every name in the options without running anything:
// the CLI fails fast with a usage error and the campaign service rejects
// a bad submission with 400 before it ever reaches the queue.
func (o CampaignOptions) Validate() error {
	if _, err := isa.ByName(o.ISA); err != nil {
		return err
	}
	if _, err := workloads.ByName(o.Workload); err != nil {
		return err
	}
	if _, err := o.Model.internal(); err != nil {
		return err
	}
	if _, err := presetFor(o.Preset, o.PhysRegs); err != nil {
		return err
	}
	if _, err := sweep.SplitTarget(o.Target); err != nil {
		return err
	}
	return validateSizing(o.Faults, o.LadderRungs, o.TargetMargin, o.Confidence, o.MinFaults, o.MaxFaults)
}

// validateSizing checks the sample-sizing knobs every campaign kind
// shares with the engines' dispatcher.
func validateSizing(faults, ladder int, margin, confidence float64, minF, maxF int) error {
	if _, err := dispatch.NewPlan(dispatch.Options{
		Faults: faults, LadderRungs: ladder,
		TargetMargin: margin, Confidence: confidence, MinFaults: minF, MaxFaults: maxF,
	}); err != nil {
		return fmt.Errorf("marvel: %w", err)
	}
	return nil
}

// Report is the outcome of a CPU campaign.
type Report struct {
	Workload string
	ISA      string
	Target   string
	Model    FaultModel

	Faults int
	Masked int
	SDC    int
	Crash  int

	AVF      float64
	SDCAVF   float64
	CrashAVF float64
	// HVF is meaningful only when HVFMeasured is true; a campaign run
	// without the commit-stage analysis reports HVFMeasured == false and
	// HVF == 0, which is "not measured", not "measured 0.0".
	HVF         float64
	HVFMeasured bool
	// Margin is the population error margin at the achieved sample size;
	// Z is the confidence quantile it (and AchievedMargin, the Wilson
	// half-width on the measured AVF) was computed at.
	Margin         float64
	Z              float64
	AchievedMargin float64
	// Requested is the fault budget; under adaptive sizing FaultsSaved =
	// Requested - Faults injections were never run, across Batches
	// dispatch batches.
	Requested   int
	FaultsSaved int
	Batches     int

	GoldenCycles uint64
	GoldenInsts  uint64
	IPC          float64
	EarlyStops   int

	// Forking stats: how the faulty runs were set up. Forks is one per
	// active worker (and ladder rung it visited) and ForkReuses covers the
	// rest of the masks.
	Forks        uint64
	ForkReuses   uint64
	PagesCopied  uint64
	SetsRestored uint64
	// Checkpoint-ladder stats (see CampaignOptions.LadderRungs): Rungs is
	// how many mid-window rungs were available, RungHits how many runs
	// forked from one, ReplayedCycles the total pre-injection cycles
	// replayed between fork points and injection cycles.
	Rungs          int
	RungHits       uint64
	ReplayedCycles uint64
}

// RunCampaign executes one CPU fault-injection campaign.
func RunCampaign(o CampaignOptions) (*Report, error) {
	a, err := isa.ByName(o.ISA)
	if err != nil {
		return nil, err
	}
	spec, err := workloads.ByName(o.Workload)
	if err != nil {
		return nil, err
	}
	model, err := o.Model.internal()
	if err != nil {
		return nil, err
	}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		return nil, err
	}
	pre, err := presetFor(o.Preset, o.PhysRegs)
	if err != nil {
		return nil, err
	}
	dom := core.DomainWholeArray
	if o.ValidOnly {
		dom = core.DomainValidOnly
	}
	targets, err := sweep.SplitTarget(o.Target)
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{
		Image:            img,
		Preset:           pre,
		Model:            model,
		Faults:           o.Faults,
		BitsPerFault:     o.BitsPerFault,
		Seed:             o.Seed,
		Domain:           dom,
		Workers:          o.Workers,
		HVF:              o.HVF,
		EarlyTermination: o.EarlyTermination,
		WatchdogFactor:   o.WatchdogFactor,
		LadderRungs:      o.LadderRungs,
		TargetMargin:     o.TargetMargin,
		Confidence:       o.Confidence,
		MinFaults:        o.MinFaults,
		MaxFaults:        o.MaxFaults,
		Profile:          o.Profile,
	}
	if len(targets) > 1 {
		cfg.MultiTargets = targets
	} else {
		cfg.Target = targets[0]
	}
	if reg := o.Metrics; reg != nil {
		cfg.OnVerdict = func(_ int, v classify.Verdict) {
			reg.AddVerdict(v.Outcome.String(), v.EarlyStop, v.HVFCorrupt)
		}
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		o.Metrics.AddForkStats(res.Forking.Forks, res.Forking.ReuseHits)
		o.Metrics.AddLadderStats(res.Forking.RungHits, res.Forking.ReplayedCycles)
	}
	return &Report{
		Workload:       o.Workload,
		ISA:            o.ISA,
		Target:         res.Target,
		Model:          o.Model,
		Faults:         res.Counts.Total(),
		Masked:         res.Counts.Masked,
		SDC:            res.Counts.SDC,
		Crash:          res.Counts.Crash,
		AVF:            res.Counts.AVF(),
		SDCAVF:         res.Counts.SDCAVF(),
		CrashAVF:       res.Counts.CrashAVF(),
		HVF:            res.Counts.HVF(),
		HVFMeasured:    res.Counts.HVFMeasured(),
		Margin:         res.Margin,
		Z:              res.Z,
		AchievedMargin: res.AchievedMargin,
		Requested:      res.Requested,
		FaultsSaved:    res.FaultsSaved,
		Batches:        res.Batches,
		GoldenCycles:   res.Golden.Cycles,
		GoldenInsts:    res.Golden.Insts,
		IPC:            res.Golden.Stats.IPC(),
		EarlyStops:     res.Counts.EarlyStops,
		Forks:          res.Forking.Forks,
		ForkReuses:     res.Forking.ReuseHits,
		PagesCopied:    res.Forking.PagesCopied,
		SetsRestored:   res.Forking.CacheSetsRestored,
		Rungs:          res.Forking.Rungs,
		RungHits:       res.Forking.RungHits,
		ReplayedCycles: res.Forking.ReplayedCycles,
	}, nil
}

// AccelOptions configures an accelerator fault-injection campaign.
type AccelOptions struct {
	Design    string // one of DesignNames()
	Component string // one of the design's Table IV components
	Model     FaultModel
	Faults    int
	Seed      int64
	// Adaptive confidence-targeted sizing, as in CampaignOptions:
	// TargetMargin > 0 stops the campaign once the Wilson half-width on
	// the AVF reaches it; Confidence is the z quantile (0 = 1.96);
	// MinFaults floors the sample; MaxFaults, when > 0, caps the budget
	// instead of Faults.
	TargetMargin float64
	Confidence   float64
	MinFaults    int
	MaxFaults    int
	// GemmMultipliers overrides the gemm datapath's multiplier count
	// (the Figure 17 design-space exploration); 0 keeps the default.
	GemmMultipliers int
	// Workers bounds campaign parallelism; 0 = GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
	// LadderRungs snapshots the fault-free task at this many evenly spaced
	// cycles inside the injection window and forks each transient run from
	// the nearest rung strictly before its injection cycle. 0 keeps the
	// single pristine checkpoint; results are bit-identical for every
	// value.
	LadderRungs int
	// Metrics, when non-nil, receives live verdict-mix and fork counters
	// as the campaign runs (the registry behind the CLI's -debug-addr
	// endpoint). Never serialized; see CampaignOptions.Metrics.
	Metrics *obs.Registry `json:"-"`
	// Profile attributes wall-clock to phases and per-worker lanes; see
	// CampaignOptions.Profile. Never serialized.
	Profile *obs.Profiler `json:"-"`
}

// Validate resolves every name in the options without running anything.
func (o AccelOptions) Validate() error {
	spec, err := machsuite.ByName(o.Design)
	if err != nil {
		return err
	}
	found := false
	for _, c := range spec.Targets {
		if c.Name == o.Component {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("marvel: design %q has no component %q", o.Design, o.Component)
	}
	if _, err := o.Model.internal(); err != nil {
		return err
	}
	return validateSizing(o.Faults, o.LadderRungs, o.TargetMargin, o.Confidence, o.MinFaults, o.MaxFaults)
}

// AccelReport is the outcome of an accelerator campaign.
type AccelReport struct {
	Design    string
	Component string
	Faults    int
	Masked    int
	SDC       int
	Crash     int
	AVF       float64
	SDCAVF    float64
	CrashAVF  float64
	// Margin is the population error margin at the achieved sample size,
	// at quantile Z; AchievedMargin is the Wilson half-width on the
	// measured AVF. Requested/FaultsSaved/Batches mirror Report.
	Margin         float64
	Z              float64
	AchievedMargin float64
	Requested      int
	FaultsSaved    int
	Batches        int

	TaskCycles uint64
	AreaUnits  float64

	// Forking stats: how the faulty harnesses were set up. Forks is one
	// per active worker (and ladder rung it visited) and ForkReuses covers
	// the rest of the masks.
	Forks       uint64
	ForkReuses  uint64
	PagesCopied uint64
	// Checkpoint-ladder stats (see AccelOptions.LadderRungs).
	Rungs          int
	RungHits       uint64
	ReplayedCycles uint64
}

// RunAccelCampaign executes one accelerator fault-injection campaign.
func RunAccelCampaign(o AccelOptions) (*AccelReport, error) {
	spec, err := machsuite.ByName(o.Design)
	if err != nil {
		return nil, err
	}
	design, task := spec.Design, spec.Task
	if o.Design == "gemm" && o.GemmMultipliers > 0 {
		design = machsuite.GemmDesign(o.GemmMultipliers)
		task = machsuite.GemmTask()
	}
	model, err := o.Model.internal()
	if err != nil {
		return nil, err
	}
	cfg := accel.CampaignConfig{
		Design:       design,
		Task:         task,
		Target:       o.Component,
		Model:        model,
		Faults:       o.Faults,
		Seed:         o.Seed,
		Workers:      o.Workers,
		LadderRungs:  o.LadderRungs,
		TargetMargin: o.TargetMargin,
		Confidence:   o.Confidence,
		MinFaults:    o.MinFaults,
		MaxFaults:    o.MaxFaults,
		Profile:      o.Profile,
	}
	if reg := o.Metrics; reg != nil {
		cfg.OnVerdict = func(_ int, v classify.Verdict) {
			reg.AddVerdict(v.Outcome.String(), v.EarlyStop, v.HVFCorrupt)
		}
	}
	res, err := accel.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		o.Metrics.AddForkStats(res.Forking.Forks, res.Forking.ReuseHits)
		o.Metrics.AddLadderStats(res.Forking.RungHits, res.Forking.ReplayedCycles)
	}
	return &AccelReport{
		Design:         o.Design,
		Component:      o.Component,
		Faults:         res.Counts.Total(),
		Masked:         res.Counts.Masked,
		SDC:            res.Counts.SDC,
		Crash:          res.Counts.Crash,
		AVF:            res.Counts.AVF(),
		SDCAVF:         res.Counts.SDCAVF(),
		CrashAVF:       res.Counts.CrashAVF(),
		Margin:         res.Margin,
		Z:              res.Z,
		AchievedMargin: res.AchievedMargin,
		Requested:      res.Requested,
		FaultsSaved:    res.FaultsSaved,
		Batches:        res.Batches,
		TaskCycles:     res.GoldenCycles,
		AreaUnits:      accel.AreaUnits(design),
		Forks:          res.Forking.Forks,
		ForkReuses:     res.Forking.ReuseHits,
		PagesCopied:    res.Forking.PagesCopied,
		Rungs:          res.Forking.Rungs,
		RungHits:       res.Forking.RungHits,
		ReplayedCycles: res.Forking.ReplayedCycles,
	}, nil
}

// SweepOptions configures a figure-scale campaign sweep: the cross-product
// of a CPU grid (ISAs × Workloads × Targets × Models) and/or an
// accelerator grid (Designs × Components × Models), executed with
// two-level parallelism and a shared golden cache. See RunSweep.
type SweepOptions struct {
	// CPU grid. A CPU grid needs at least one ISA and one Target;
	// empty Workloads means all fifteen. Each Target may be a single
	// structure or a "+"-joined combination ("prf+rob+iq").
	ISAs      []string
	Workloads []string
	Targets   []string

	// Accelerator grid. Empty Components means every Table IV component
	// of each design.
	Designs    []string
	Components []string

	// Models applies to both grids; empty means transient only.
	Models []FaultModel

	Faults int // statistical sample size per cell
	Seed   int64

	// Adaptive confidence-targeted sizing, applied to every cell (see
	// CampaignOptions): TargetMargin > 0 lets each cell stop once its
	// Wilson half-width converges, Faults/MaxFaults bounding the budget.
	// The resume journal records each cell's achieved N.
	TargetMargin float64
	Confidence   float64
	MinFaults    int
	MaxFaults    int

	// Campaign knobs, applied to every cell (see CampaignOptions).
	BitsPerFault     int
	ValidOnly        bool
	HVF              bool
	EarlyTermination bool
	WatchdogFactor   float64
	PhysRegs         int
	// Preset selects the CPU hardware configuration: "" or "table2" is
	// the paper's Table II; "fast" is the scaled-down test preset.
	Preset string
	// LadderRungs forwards the checkpoint ladder to every cell's campaign
	// (see CampaignOptions.LadderRungs); results are bit-identical for
	// every value, so a resumed sweep may change it.
	LadderRungs int

	// Workers is the global worker budget shared by every concurrently
	// running cell; 0 = GOMAXPROCS. CellParallel bounds how many cells
	// run at once (0 = up to 3); each gets max(1, Workers/CellParallel)
	// campaign workers. Results are identical for every choice.
	Workers      int
	CellParallel int

	// OutDir, when non-empty, persists the sweep (manifest.json plus a
	// cells.jsonl appended per finished cell) and makes it resumable:
	// re-running the same options against the same directory skips
	// completed cells.
	OutDir string

	// OnProgress, when non-nil, observes live counters; it is called
	// serialized on cell start/finish and every classified fault, and
	// must not block. Never serialized.
	OnProgress func(SweepProgress) `json:"-"`

	// Metrics, when non-nil, receives live counter updates (verdict mix,
	// fork reuse, golden-cache hits, per-cell latency) as the sweep runs —
	// the registry behind the CLI's -debug-addr endpoint and the
	// -progress-jsonl writer. Never serialized.
	Metrics *obs.Registry `json:"-"`
	// Profile attributes the sweep's wall-clock to phases and lanes
	// (golden prep, journal appends, plus every cell's campaign phases);
	// see CampaignOptions.Profile. Never serialized.
	Profile *obs.Profiler `json:"-"`
}

// Validate plans the sweep grid without running it, resolving every ISA,
// workload, target, design, component and model name.
func (o SweepOptions) Validate() error {
	if _, err := presetFor(o.Preset, o.PhysRegs); err != nil {
		return err
	}
	if err := validateSizing(o.Faults, o.LadderRungs, o.TargetMargin, o.Confidence, o.MinFaults, o.MaxFaults); err != nil {
		return err
	}
	models := make([]string, len(o.Models))
	for i, m := range o.Models {
		if _, err := m.internal(); err != nil {
			return err
		}
		if m == "" {
			m = Transient
		}
		models[i] = string(m)
	}
	_, err := sweep.Plan(sweep.Spec{
		ISAs:       o.ISAs,
		Workloads:  o.Workloads,
		Targets:    o.Targets,
		Designs:    o.Designs,
		Components: o.Components,
		Models:     models,
	})
	return err
}

// SweepProgress is a point-in-time view of a running sweep.
type SweepProgress struct {
	TotalCells    int
	CellsStarted  int
	CellsFinished int
	CellsSkipped  int // restored from the resume journal

	// TotalFaults is the budgeted total; under adaptive sizing it is an
	// upper bound, and FaultsSaved counts budgeted injections cells
	// stopped short of.
	TotalFaults int64
	FaultsDone  int64
	FaultsSaved int64
	EarlyStops  int64

	Elapsed     time.Duration
	CellsPerSec float64
	ETA         time.Duration // zero until enough throughput is observed
	LastCell    string        // key of the most recently started cell
}

// SweepCell is one completed cell of a sweep.
type SweepCell struct {
	Key       string // e.g. "cpu/arm/crc32/prf+rob/transient"
	Kind      string // "cpu" or "accel"
	ISA       string
	Workload  string
	Target    string
	Design    string
	Component string
	Model     FaultModel

	Faults     int
	Masked     int
	SDC        int
	Crash      int
	EarlyStops int

	AVF      float64
	SDCAVF   float64
	CrashAVF float64
	// HVF is meaningful only when HVFMeasured is true.
	HVF         float64
	HVFMeasured bool
	// Margin and AchievedMargin are at quantile Z; Requested/FaultsSaved/
	// Batches report the cell's adaptive sizing (see Report).
	Margin         float64
	Z              float64
	AchievedMargin float64
	Requested      int
	FaultsSaved    int
	Batches        int

	GoldenCycles uint64
	TargetBits   uint64
	WallMS       int64
}

// SweepReport is the outcome of a sweep.
type SweepReport struct {
	Cells []SweepCell // one per planned cell, in plan order

	CellsExecuted int
	// CellsSkipped were restored complete from the resume journal.
	CellsSkipped int
	// GoldenRuns counts golden-phase executions; GoldenHits counts cells
	// served by an already-prepared golden from the cache.
	GoldenRuns int
	GoldenHits int

	FaultsDone int64
	// FaultsSaved totals the budgeted injections adaptive cells stopped
	// short of running (including journal-restored cells).
	FaultsSaved int64
	EarlyStops  int64
	Forks       uint64
	ForkReuses  uint64
	// Checkpoint-ladder totals across all executed cells (see
	// SweepOptions.LadderRungs).
	RungHits       uint64
	ReplayedCycles uint64

	Elapsed time.Duration
}

// RunSweep plans and executes a campaign sweep. The expensive shared
// prefix of every cell — compiled image plus golden run — is memoized per
// (ISA, workload, preset) and reused across campaigns; every cell's
// verdicts are nevertheless bit-identical to a standalone RunCampaign /
// RunAccelCampaign with the same seed.
func RunSweep(o SweepOptions) (*SweepReport, error) {
	models := make([]string, len(o.Models))
	for i, m := range o.Models {
		if m == "" {
			m = Transient
		}
		models[i] = string(m)
	}
	spec := sweep.Spec{
		ISAs:             o.ISAs,
		Workloads:        o.Workloads,
		Targets:          o.Targets,
		Designs:          o.Designs,
		Components:       o.Components,
		Models:           models,
		Faults:           o.Faults,
		Seed:             o.Seed,
		TargetMargin:     o.TargetMargin,
		Confidence:       o.Confidence,
		MinFaults:        o.MinFaults,
		MaxFaults:        o.MaxFaults,
		BitsPerFault:     o.BitsPerFault,
		ValidOnly:        o.ValidOnly,
		HVF:              o.HVF,
		EarlyTermination: o.EarlyTermination,
		WatchdogFactor:   o.WatchdogFactor,
		PhysRegs:         o.PhysRegs,
		Preset:           o.Preset,
		LadderRungs:      o.LadderRungs,
		Workers:          o.Workers,
		CellParallel:     o.CellParallel,
		OutDir:           o.OutDir,
		Metrics:          o.Metrics,
		Profile:          o.Profile,
	}
	if o.OnProgress != nil {
		spec.OnProgress = func(s sweep.Snapshot) {
			o.OnProgress(SweepProgress{
				TotalCells:    s.TotalCells,
				CellsStarted:  s.CellsStarted,
				CellsFinished: s.CellsFinished,
				CellsSkipped:  s.CellsSkipped,
				TotalFaults:   s.TotalFaults,
				FaultsDone:    s.FaultsDone,
				FaultsSaved:   s.FaultsSaved,
				EarlyStops:    s.EarlyStops,
				Elapsed:       s.Elapsed,
				CellsPerSec:   s.CellsPerSec,
				ETA:           s.ETA,
				LastCell:      s.LastCell,
			})
		}
	}
	res, err := sweep.Run(spec)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		Cells:          make([]SweepCell, len(res.Cells)),
		CellsExecuted:  res.Counters.CellsExecuted,
		CellsSkipped:   res.Counters.CellsSkipped,
		GoldenRuns:     res.Counters.GoldenRuns,
		GoldenHits:     res.Counters.GoldenHits,
		FaultsDone:     res.Counters.FaultsDone,
		FaultsSaved:    res.Counters.FaultsSaved,
		EarlyStops:     res.Counters.EarlyStops,
		Forks:          res.Counters.Forks,
		ForkReuses:     res.Counters.ForkReuses,
		RungHits:       res.Counters.RungHits,
		ReplayedCycles: res.Counters.ReplayedCycles,
		Elapsed:        res.Elapsed,
	}
	for i, c := range res.Cells {
		sc := SweepCell{
			Key:            c.Key,
			Kind:           c.Cell.Kind,
			ISA:            c.Cell.ISA,
			Workload:       c.Cell.Workload,
			Target:         c.Cell.Target,
			Design:         c.Cell.Design,
			Component:      c.Cell.Component,
			Model:          FaultModel(c.Cell.Model),
			Faults:         c.Faults,
			Masked:         c.Masked,
			SDC:            c.SDC,
			Crash:          c.Crash,
			EarlyStops:     c.EarlyStops,
			AVF:            c.AVF,
			SDCAVF:         c.SDCAVF,
			CrashAVF:       c.CrashAVF,
			HVFMeasured:    c.HVFMeasured,
			Margin:         c.Margin,
			Z:              c.Z,
			AchievedMargin: c.AchievedMargin,
			Requested:      c.Requested,
			FaultsSaved:    c.FaultsSaved,
			Batches:        c.Batches,
			GoldenCycles:   c.GoldenCycles,
			TargetBits:     c.TargetBits,
			WallMS:         c.WallMS,
		}
		if c.HVF != nil {
			sc.HVF = *c.HVF
		}
		rep.Cells[i] = sc
	}
	return rep, nil
}

// GoldenReport summarizes a fault-free workload run.
type GoldenReport struct {
	Workload string
	ISA      string
	Cycles   uint64
	Insts    uint64
	IPC      float64
	CodeSize int
	Ops      float64
}

// RunGolden executes a workload without faults, for performance studies.
func RunGolden(isaName, workload string) (*GoldenReport, error) {
	a, err := isa.ByName(isaName)
	if err != nil {
		return nil, err
	}
	spec, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		return nil, err
	}
	pre := config.TableII()
	sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
	if err != nil {
		return nil, err
	}
	res := sys.Run(500_000_000)
	if res.Status != soc.RunCompleted {
		return nil, fmt.Errorf("marvel: golden run %v (trap %v)", res.Status, res.Trap)
	}
	return &GoldenReport{
		Workload: workload,
		ISA:      isaName,
		Cycles:   res.Cycles,
		Insts:    res.Stats.Insts,
		IPC:      res.Stats.IPC(),
		CodeSize: len(img.Code),
		Ops:      spec.Ops,
	}, nil
}

// SoCReport summarizes a heterogeneous CPU+accelerator run.
type SoCReport struct {
	ISA         string
	Design      string
	IntCtrl     string // "gic" or "plic"
	SoCCycles   uint64
	AccelCycles uint64
	CPUInsts    uint64
	OutputOK    bool
}

// RunSoC drives an accelerator design from a CPU program over MMRs, DMA
// and the completion interrupt — the full heterogeneous flow of Figure 1.
func RunSoC(isaName, design string) (*SoCReport, error) {
	a, err := isa.ByName(isaName)
	if err != nil {
		return nil, err
	}
	spec, err := machsuite.ByName(design)
	if err != nil {
		return nil, err
	}
	task := soc.RelocateTask(spec.Task)
	prog, err := soc.DriverProgram(task)
	if err != nil {
		return nil, err
	}
	img, err := program.Compile(a, prog)
	if err != nil {
		return nil, err
	}
	pre := config.TableII()
	sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
	if err != nil {
		return nil, err
	}
	cl, err := accel.NewCluster(spec.Design, accel.MemHostPort{Mem: sys.Mem})
	if err != nil {
		return nil, err
	}
	if err := sys.AttachCluster(cl); err != nil {
		return nil, err
	}
	res := sys.Run(100_000_000)
	if res.Status != soc.RunCompleted {
		return nil, fmt.Errorf("marvel: SoC run %v (trap %v)", res.Status, res.Trap)
	}
	want := spec.Ref()
	ok := len(res.Output) == len(want)
	if ok {
		for i := range want {
			if res.Output[i] != want[i] {
				ok = false
				break
			}
		}
	}
	return &SoCReport{
		ISA:         isaName,
		Design:      design,
		IntCtrl:     sys.IntCtrl.Name(),
		SoCCycles:   res.Cycles,
		AccelCycles: cl.TaskCycles(),
		CPUInsts:    res.Stats.Insts,
		OutputOK:    ok,
	}, nil
}

// WeightedAVF aggregates per-benchmark AVFs weighted by execution time
// (the paper's §V-A wAVF).
func WeightedAVF(reports []*Report) float64 {
	avfs := make([]float64, len(reports))
	ts := make([]float64, len(reports))
	for i, r := range reports {
		avfs[i] = r.AVF
		ts[i] = float64(r.GoldenCycles)
	}
	return metrics.WeightedAVF(avfs, ts)
}

// WeightedSDCAVF aggregates the SDC component of the AVF the same way.
func WeightedSDCAVF(reports []*Report) float64 {
	avfs := make([]float64, len(reports))
	ts := make([]float64, len(reports))
	for i, r := range reports {
		avfs[i] = r.SDCAVF
		ts[i] = float64(r.GoldenCycles)
	}
	return metrics.WeightedAVF(avfs, ts)
}

// ClockHz is the modeled SoC clock for OPS/OPF computations.
const ClockHz = 1e9

// OPF computes the Operations-per-Failure metric of §V-G. A campaign
// that observed zero failures has no finite OPF: measured reports false
// and the value is 0 ("no failure observed over this sample"), keeping
// +Inf out of JSON-encoded reports.
func OPF(ops float64, cycles uint64, avf float64) (opf float64, measured bool) {
	return metrics.OPF(ops, cycles, ClockHz, avf)
}

// OPS computes operations per second at the modeled clock.
func OPS(ops float64, cycles uint64) float64 {
	return metrics.OPS(ops, cycles, ClockHz)
}

// SampleSize returns the Leveugle et al. statistical sample size for a
// structure of populationBits at error margin e and 95% confidence.
func SampleSize(populationBits uint64, e float64) int {
	return core.SampleSize(populationBits, e, 1.96)
}
