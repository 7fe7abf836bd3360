package dispatch

import (
	"errors"
	"sync"
	"testing"

	"marvel/internal/classify"
	"marvel/internal/obs"
)

// fakeScratch records where it was forked and whether the last run left
// it dirty, so the engine can assert the dispatcher's fork/reset protocol.
type fakeScratch struct {
	rung   int
	dirty  bool
	resets uint64
}

func (s *fakeScratch) Reset() { s.dirty, s.resets = false, s.resets+1 }

func (s *fakeScratch) ForkCounters() (uint64, uint64) { return 1, s.resets }

// fakeEngine classifies fault i as SDC when i is a multiple of sdcEvery
// (Masked otherwise) and places it on rung i % rungs.
type fakeEngine struct {
	rungs    int
	sdcEvery int
	failAt   int // fault index whose run fails; -1 for none

	mu  sync.Mutex
	ran map[int]int // fault index -> times run
}

func newFakeEngine(rungs, sdcEvery int) *fakeEngine {
	return &fakeEngine{rungs: rungs, sdcEvery: sdcEvery, failAt: -1, ran: map[int]int{}}
}

func (e *fakeEngine) Rung(i int) int { return i % e.rungs }

func (e *fakeEngine) Fork(r int) *fakeScratch { return &fakeScratch{rung: r} }

func (e *fakeEngine) Replayed(i, r int) uint64 { return uint64(10 + r) }

func (e *fakeEngine) Run(s *fakeScratch, i, r int, _ *obs.Lane) (classify.Verdict, error) {
	e.mu.Lock()
	e.ran[i]++
	e.mu.Unlock()
	if s.rung != r || r != e.Rung(i) {
		return classify.Verdict{}, errors.New("scratch not positioned at the fault's rung")
	}
	if s.dirty {
		return classify.Verdict{}, errors.New("scratch reused without a reset")
	}
	s.dirty = true
	if i == e.failAt {
		return classify.Verdict{}, errors.New("injected failure")
	}
	if i%e.sdcEvery == 0 {
		return classify.Verdict{Outcome: classify.SDC, Cycles: uint64(i)}, nil
	}
	return classify.Verdict{Outcome: classify.Masked, Cycles: uint64(i)}, nil
}

func mustPlan(t *testing.T, o Options) *Plan {
	t.Helper()
	p, err := NewPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlanValidates(t *testing.T) {
	for _, o := range []Options{
		{},
		{Faults: -1},
		{Faults: 4, LadderRungs: -1},
		{Faults: 4, TargetMargin: -0.1},
		{Faults: 4, TargetMargin: 1},
		{Faults: 4, Confidence: -1},
		{Faults: 4, MinFaults: -1},
		{Faults: 4, MaxFaults: -1},
	} {
		if _, err := NewPlan(o); err == nil {
			t.Errorf("NewPlan(%+v) accepted an invalid option set", o)
		}
	}
}

func TestNewPlanDefaults(t *testing.T) {
	p := mustPlan(t, Options{Faults: 10, Workers: 64, MinFaults: 50})
	if p.Budget != 10 || p.Z != 1.96 || p.BatchSize != 32 || p.Workers != 10 || p.MinFaults != 10 {
		t.Fatalf("fixed plan defaults: %+v", p)
	}
	// MaxFaults only caps adaptive campaigns.
	if p := mustPlan(t, Options{Faults: 10, MaxFaults: 40}); p.Budget != 10 {
		t.Fatalf("fixed plan took MaxFaults as its budget: %d", p.Budget)
	}
	if p := mustPlan(t, Options{Faults: 10, MaxFaults: 40, TargetMargin: 0.1, Confidence: 2.58}); p.Budget != 40 || p.Z != 2.58 {
		t.Fatalf("adaptive plan: budget %d z %v, want 40 and 2.58", p.Budget, p.Z)
	}
	if p := mustPlan(t, Options{Faults: 10}); p.Workers < 1 {
		t.Fatalf("default workers %d, want GOMAXPROCS", p.Workers)
	}
}

// TestRunScheduleInvariance: verdicts come back in fault order and the
// counters add up, whatever the worker count; every fault runs exactly
// once on a scratch forked from its own rung and reset between runs.
func TestRunScheduleInvariance(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 3, 8} {
		for _, rungs := range []int{1, 4} {
			e := newFakeEngine(rungs, 7)
			var seen sync.Map
			p := mustPlan(t, Options{Faults: n, Workers: workers, OnVerdict: func(i int, v classify.Verdict) {
				if _, dup := seen.LoadOrStore(i, v); dup {
					t.Errorf("OnVerdict called twice for fault %d", i)
				}
			}})
			vs, sum, err := Run(p, e)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != n || len(e.ran) != n || sum.Counts.Total() != n {
				t.Fatalf("workers=%d rungs=%d: %d verdicts, %d faults run, %d counted", workers, rungs, len(vs), len(e.ran), sum.Counts.Total())
			}
			for i, v := range vs {
				if v.Cycles != uint64(i) || e.ran[i] != 1 {
					t.Fatalf("workers=%d rungs=%d: fault %d verdict %+v, ran %d times", workers, rungs, i, v, e.ran[i])
				}
				if got, _ := seen.Load(i); got != v {
					t.Fatalf("fault %d: OnVerdict saw %+v, result has %+v", i, got, v)
				}
			}
			if sum.Counts.SDC != 15 {
				t.Fatalf("SDC count %d, want 15", sum.Counts.SDC)
			}
			f := sum.Forking
			if f.Forks+f.ReuseHits != n || f.Forks > uint64(workers*rungs) {
				t.Fatalf("workers=%d rungs=%d: %d forks + %d reuses", workers, rungs, f.Forks, f.ReuseHits)
			}
			// Every fork contributes one page and its resets as restored sets.
			if f.PagesCopied != f.Forks || f.CacheSetsRestored != f.ReuseHits {
				t.Fatalf("counters not folded: %+v", f)
			}
			wantHits, wantReplay := uint64(0), uint64(0)
			for i := 0; i < n; i++ {
				if r := i % rungs; r > 0 {
					wantHits++
				}
				wantReplay += uint64(10 + i%rungs)
			}
			if f.RungHits != wantHits || f.ReplayedCycles != wantReplay {
				t.Fatalf("rung hits %d replayed %d, want %d and %d", f.RungHits, f.ReplayedCycles, wantHits, wantReplay)
			}
			if sum.Batches != 1 || sum.Requested != n || sum.FaultsSaved != 0 {
				t.Fatalf("fixed campaign summary: %+v", sum)
			}
		}
	}
}

// TestRunAdaptiveStopsOnPrefix: an adaptive campaign runs whole batches
// of the fixed index stream and stops at the first barrier where the
// Wilson half-width reaches the target.
func TestRunAdaptiveStopsOnPrefix(t *testing.T) {
	const budget = 1000
	fixed, _, err := Run(mustPlan(t, Options{Faults: budget, Workers: 4}), newFakeEngine(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	e := newFakeEngine(1, 50)
	vs, sum, err := Run(mustPlan(t, Options{Faults: budget, Workers: 4, TargetMargin: 0.05, BatchSize: 16}), e)
	if err != nil {
		t.Fatal(err)
	}
	n := len(vs)
	if n == 0 || n >= budget || n%16 != 0 {
		t.Fatalf("adaptive campaign ran %d of %d faults", n, budget)
	}
	if len(e.ran) != n || sum.Batches != n/16 || sum.FaultsSaved != budget-n {
		t.Fatalf("ran %d faults in %d batches, saved %d; verdicts %d", len(e.ran), sum.Batches, sum.FaultsSaved, n)
	}
	for i, v := range vs {
		if v != fixed[i] {
			t.Fatalf("fault %d: adaptive %+v, fixed %+v", i, v, fixed[i])
		}
	}
	if sum.AchievedMargin > 0.05 || n > 16 && halfWidth(vs[:n-16], sum.Z) <= 0.05 {
		t.Fatalf("stopped at ±%v; the previous barrier was at ±%v", sum.AchievedMargin, halfWidth(vs[:n-16], sum.Z))
	}
	// The floor postpones the stop.
	vs, _, err = Run(mustPlan(t, Options{Faults: budget, Workers: 4, TargetMargin: 0.05, BatchSize: 16, MinFaults: n + 100}), newFakeEngine(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < n+100 {
		t.Fatalf("MinFaults %d ignored: stopped at %d", n+100, len(vs))
	}
}

// TestRunAbortsOnFirstError: an infrastructure failure fails the campaign
// and no batch after the failing one is dispatched.
func TestRunAbortsOnFirstError(t *testing.T) {
	e := newFakeEngine(2, 7)
	e.failAt = 5
	_, _, err := Run(mustPlan(t, Options{Faults: 200, Workers: 3, TargetMargin: 0.01, BatchSize: 8}), e)
	if err == nil || err.Error() != "injected failure" {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	for i := range e.ran {
		if i >= 8 {
			t.Fatalf("fault %d ran after the failing batch", i)
		}
	}
}
