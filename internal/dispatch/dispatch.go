// Package dispatch is the fault dispatcher of the campaign controller
// (Figure 2, §IV-B checkpoint forking), shared by the CPU and accelerator
// engines. It validates the sample-sizing knobs, fans faults out over a
// worker pool in contiguous batches sorted by checkpoint rung, forks one
// scratch system per worker (re-forking when the worker moves to another
// rung, resetting it otherwise), stops adaptive campaigns on the Wilson
// half-width, aborts on the first infrastructure error and folds every
// worker's fork counters into one ForkStats.
//
// An engine supplies only an Engine adapter: which rung a fault forks
// from, how to fork a scratch system from a rung, how to run one fault on
// it, and how many pre-injection cycles that fault replays.
package dispatch

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"marvel/internal/classify"
	"marvel/internal/metrics"
	"marvel/internal/obs"
)

// Scratch is a forked system a worker reuses across faults.
type Scratch interface {
	// Reset rolls the scratch back to the checkpoint it was forked from.
	Reset()
	// ForkCounters reports the copy-on-write work done since the fork:
	// main-memory pages materialized and cache sets restored.
	ForkCounters() (pagesCopied, setsRestored uint64)
}

// Engine adapts one prepared campaign to the dispatcher. Faults are
// indexed [0, Plan.Budget); Fork and Run are called concurrently from
// several workers, each on its own scratch.
type Engine[S Scratch] interface {
	// Rung returns the checkpoint-ladder rung fault i forks from (0 is the
	// window-start checkpoint).
	Rung(i int) int
	// Fork creates a scratch system positioned at the rung's checkpoint.
	Fork(rung int) S
	// Run injects fault i into s, which sits at the rung's checkpoint,
	// runs it and classifies the outcome. An error is an infrastructure
	// failure and aborts the campaign.
	Run(s S, i, rung int, lane *obs.Lane) (classify.Verdict, error)
	// Replayed returns the pre-injection cycles fault i replays between
	// the rung's checkpoint and its first transient injection.
	Replayed(i, rung int) uint64
}

// Options are the sample-sizing and scheduling knobs the engines expose;
// campaign.Config documents what each one means. LadderRungs, the
// accelerator engine's ladder depth (accel.CampaignConfig), is only
// validated here: the engine builds the ladder.
type Options struct {
	Faults, Workers                 int
	TargetMargin, Confidence        float64
	MinFaults, MaxFaults, BatchSize int
	LadderRungs                     int
	OnVerdict                       func(index int, v classify.Verdict)
	Profile                         *obs.Profiler
}

// Plan is a validated Options with every default resolved: at least one
// worker and no more than Budget, BatchSize 32, MinFaults capped at Budget.
type Plan struct {
	Options
	// Budget is how many faults the engine must generate: Faults, or
	// MaxFaults for a capped adaptive campaign.
	Budget int
	// Z is the confidence quantile margins are computed at (default 1.96).
	Z float64
}

// NewPlan validates o and resolves its defaults.
func NewPlan(o Options) (*Plan, error) {
	switch {
	case o.Faults <= 0:
		return nil, fmt.Errorf("fault count must be positive, got %d", o.Faults)
	case o.LadderRungs < 0:
		return nil, fmt.Errorf("ladder rungs must be non-negative, got %d", o.LadderRungs)
	case o.TargetMargin < 0 || o.TargetMargin >= 1:
		return nil, fmt.Errorf("target margin must be in [0, 1), got %v", o.TargetMargin)
	case o.Confidence < 0:
		return nil, fmt.Errorf("confidence quantile must be non-negative, got %v", o.Confidence)
	case o.MinFaults < 0 || o.MaxFaults < 0:
		return nil, fmt.Errorf("min/max faults must be non-negative, got %d/%d", o.MinFaults, o.MaxFaults)
	}
	p := &Plan{Options: o, Budget: o.Faults, Z: o.Confidence}
	if p.Z <= 0 {
		p.Z = 1.96
	}
	if o.TargetMargin > 0 && o.MaxFaults > 0 {
		p.Budget = o.MaxFaults
	}
	p.MinFaults = min(p.MinFaults, p.Budget)
	if p.BatchSize <= 0 {
		p.BatchSize = 32
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	p.Workers = min(p.Workers, p.Budget)
	return p, nil
}

// ForkStats counts checkpoint-forking activity over one campaign.
type ForkStats struct {
	// Forks is the number of scratch systems created: one per worker and
	// rung it visited.
	Forks uint64
	// ReuseHits counts faulty runs served by resetting a worker's scratch
	// instead of forking a new one.
	ReuseHits uint64
	// PagesCopied is the number of main-memory pages materialized by
	// copy-on-write across all workers.
	PagesCopied uint64
	// CacheSetsRestored is the number of cache sets rolled back by scratch
	// resets across all workers (0 for an engine without caches).
	CacheSetsRestored uint64
	// Rungs is the number of mid-window ladder checkpoints the campaign
	// had available (0 when the ladder is off).
	Rungs int
	// RungHits counts faulty runs forked from a mid-window rung instead of
	// the window-start checkpoint.
	RungHits uint64
	// ReplayedCycles totals the pre-injection cycles between each run's
	// fork point and its first transient injection — the quantity the
	// ladder exists to shrink.
	ReplayedCycles uint64
	// Converged counts faulty runs that ended early because their whole
	// state equalled a golden checkpoint, and ConvergedCycles the golden
	// cycles those runs did not simulate. The engine fills both in (the
	// accelerator engine has no convergence checks and reports 0).
	Converged       uint64
	ConvergedCycles uint64
}

func (f *ForkStats) add(o ForkStats) {
	f.Forks += o.Forks
	f.ReuseHits += o.ReuseHits
	f.PagesCopied += o.PagesCopied
	f.CacheSetsRestored += o.CacheSetsRestored
	f.RungHits += o.RungHits
	f.ReplayedCycles += o.ReplayedCycles
}

// Summary is the engine-independent part of a campaign result.
type Summary struct {
	// Counts tallies the verdicts of the executed faults.
	Counts metrics.Counts
	// Margin is the Leveugle et al. sampling error over the target's bit
	// population for the achieved sample size, at quantile Z. The engine
	// fills it in: only it knows the population.
	Margin float64
	Z      float64
	// Requested is the planned budget; FaultsSaved is how much of it an
	// adaptive stop left unrun, after Batches dispatch batches.
	Requested, FaultsSaved, Batches int
	// AchievedMargin is the Wilson half-width of the final AVF estimate at
	// quantile Z, the quantity adaptive sizing drives to TargetMargin.
	AchievedMargin float64
	// Forking describes how faulty runs were forked; the engine fills in
	// Rungs, Converged and ConvergedCycles.
	Forking ForkStats
}

// worker is one pool member's scratch system and its private counters.
type worker[S Scratch] struct {
	lane    *obs.Lane
	scratch S
	rung    int // rung of scratch; -1 before the first fork
	stats   ForkStats
}

// run positions the worker's scratch at rung r — forking on a rung
// change, resetting otherwise — and runs fault i on it.
func (w *worker[S]) run(e Engine[S], i, r int) (classify.Verdict, error) {
	if w.rung != r {
		sp := w.lane.BeginID(obs.PhaseFork, int64(i))
		w.retire()
		w.scratch, w.rung = e.Fork(r), r
		sp.End()
		w.stats.Forks++
	} else {
		sp := w.lane.BeginID(obs.PhaseReset, int64(i))
		w.scratch.Reset()
		sp.End()
		w.stats.ReuseHits++
	}
	if r > 0 {
		w.stats.RungHits++
	}
	w.stats.ReplayedCycles += e.Replayed(i, r)
	return e.Run(w.scratch, i, r, w.lane)
}

// retire folds the current scratch's copy-on-write counters in.
func (w *worker[S]) retire() {
	if w.rung < 0 {
		return
	}
	pages, sets := w.scratch.ForkCounters()
	w.stats.PagesCopied += pages
	w.stats.CacheSetsRestored += sets
}

// Run dispatches the faults of e under plan p and returns the verdicts of
// the executed prefix [0, n) in fault order, plus the campaign summary.
//
// A fixed campaign is one batch spanning the whole budget; an adaptive one
// sends BatchSize faults per batch and re-evaluates the Wilson half-width
// at each barrier. Batches are contiguous index ranges, so the executed
// set is always a prefix of the fixed run's; inside a batch faults are
// sorted by rung so each worker's scratch walks the ladder monotonically.
// The first error any fault returns aborts the campaign after the current
// batch drains: an infrastructure failure must not be counted as a crash.
func Run[S Scratch](p *Plan, e Engine[S]) ([]classify.Verdict, Summary, error) {
	sum := Summary{Z: p.Z, Requested: p.Budget}
	verdicts := make([]classify.Verdict, p.Budget)
	rungOf := make([]int, p.Budget)
	for i := range rungOf {
		rungOf[i] = e.Rung(i)
	}

	var mu sync.Mutex // guards firstErr and sum.Forking
	var firstErr error
	// failed mirrors firstErr != nil for the between-batch check.
	var failed atomic.Bool
	var pool sync.WaitGroup    // worker goroutine lifetimes
	var pending sync.WaitGroup // in-flight faults of the current batch
	work := make(chan int)
	for n := 0; n < p.Workers; n++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			w := worker[S]{rung: -1}
			if p.Profile != nil {
				w.lane = p.Profile.NewLane("worker-" + strconv.Itoa(n))
			}
			var err error
			for i := range work {
				// After a failure the worker only drains the queue.
				if err == nil {
					if verdicts[i], err = w.run(e, i, rungOf[i]); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						failed.Store(true)
					} else if p.OnVerdict != nil {
						p.OnVerdict(i, verdicts[i])
					}
				}
				pending.Done()
			}
			w.retire()
			mu.Lock()
			sum.Forking.add(w.stats)
			mu.Unlock()
		}()
	}

	adaptive := p.TargetMargin > 0
	done := 0
	for done < p.Budget {
		hi := p.Budget
		if adaptive {
			hi = min(done+p.BatchSize, p.Budget)
		}
		batch := make([]int, hi-done)
		for j := range batch {
			batch[j] = done + j
		}
		sort.SliceStable(batch, func(a, b int) bool { return rungOf[batch[a]] < rungOf[batch[b]] })
		pending.Add(len(batch))
		for _, i := range batch {
			work <- i
		}
		pending.Wait()
		done = hi
		sum.Batches++
		if failed.Load() {
			break
		}
		if adaptive && done >= p.MinFaults && halfWidth(verdicts[:done], p.Z) <= p.TargetMargin {
			break
		}
	}
	close(work)
	pool.Wait()
	if firstErr != nil {
		return nil, Summary{}, firstErr
	}

	verdicts = verdicts[:done]
	for _, v := range verdicts {
		sum.Counts.Add(v)
	}
	sum.FaultsSaved = p.Budget - done
	sum.AchievedMargin = metrics.Confidence(sum.Counts.AVF(), done, p.Z).Half()
	return verdicts, sum, nil
}

// halfWidth is the Wilson half-width of the AVF over vs at quantile z.
func halfWidth(vs []classify.Verdict, z float64) float64 {
	var c metrics.Counts
	for _, v := range vs {
		c.Add(v)
	}
	return metrics.Confidence(c.AVF(), len(vs), z).Half()
}
