package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/obs"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// timedCache wraps the sweep's own per-run golden cache and times every
// golden build it makes, so the sweep's set-up cost is measured without
// instrumenting the sweep.
type timedCache struct {
	inner  sweep.GoldenCache
	tr     *tracer
	parent int

	mu       sync.Mutex
	seconds  float64           // summed build time
	cycles   uint64            // simulated cycles of the golden runs
	windowLo map[string]uint64 // golden key → injection-window start
}

func newTimedCache(tr *tracer, parent int) *timedCache {
	return &timedCache{inner: sweep.NewRunCache(), tr: tr, parent: parent, windowLo: map[string]uint64{}}
}

func (c *timedCache) CPUGolden(key string, build func() (*sweep.CPUGolden, error)) (*sweep.CPUGolden, bool, error) {
	return c.inner.CPUGolden(key, func() (*sweep.CPUGolden, error) {
		sp := c.tr.begin("sweep.BuildCPUGolden", key, c.parent)
		t0 := time.Now()
		g, err := build()
		dt := time.Since(t0).Seconds()
		c.tr.end(sp)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.seconds += dt
		if err == nil {
			c.cycles += g.Golden.Info.Cycles
			c.windowLo[key] = g.Golden.Info.WindowLo
		}
		return g, err
	})
}

func (c *timedCache) AccelGolden(key string, build func() (*sweep.AccelGolden, error)) (*sweep.AccelGolden, bool, error) {
	return c.inner.AccelGolden(key, build)
}

// sweepTargets and sweepModels fix the sweep grid: 3 ISAs × 15
// workloads × 2 targets × 2 models = 180 cells over 45 goldens.
var (
	sweepTargets = []string{"l1i", "rob"}
	sweepModels  = []string{"transient", "stuck-at-1"}
)

// runSweep measures the whole orchestrator: one sweep.Run per pass over
// the fixed grid, with two workers, two cells at a time, valid-only
// faults and a journal in a fresh directory. Golden prep interleaves
// with the cells, so set-up is timed through the golden cache.
func runSweep(b *bench) error {
	pre := config.TableII()
	var setup, cellMS []float64
	var es engineStats
	var forks, early, builds, hits float64
	_, err := b.timed(func(traced bool) (pass, error) {
		var p pass
		tr := b.tr
		if !traced {
			tr = nil
		}
		dir, err := os.MkdirTemp(b.workdir, "sweep-journal-")
		if err != nil {
			return p, err
		}
		root := tr.begin("sweep.pass", "", 0)
		cache := newTimedCache(tr, root)
		var faultyMu sync.Mutex
		var faulty uint64
		spec := sweep.Spec{
			ISAs:         isaNames,
			Targets:      sweepTargets,
			Models:       sweepModels,
			Faults:       b.size.Faults.Sweep,
			Seed:         b.seed,
			ValidOnly:    true,
			Preset:       "table2",
			Workers:      campaignWorkers,
			CellParallel: 2,
			OutDir:       dir,
			Goldens:      cache,
			OnVerdict: func(c sweep.Cell, _ int, v classify.Verdict) {
				key := sweep.CPUGoldenKey(c.ISA, c.Workload, pre)
				cache.mu.Lock()
				lo := cache.windowLo[key]
				cache.mu.Unlock()
				faultyMu.Lock()
				faulty += v.Cycles - lo
				faultyMu.Unlock()
			},
		}
		if traced {
			spec.Profile = obs.NewProfiler()
		}
		var a0, a1 uint64
		if traced {
			a0, _ = allocs()
		}
		sp := tr.begin("sweep.Run", "", root)
		t0 := time.Now()
		res, err := sweep.Run(spec)
		dt := time.Since(t0).Seconds()
		tr.end(sp)
		tr.end(root)
		if traced {
			a1, _ = allocs()
		}
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			b.attempted++
			return p, fmt.Errorf("sweep: %w", err)
		}
		b.attempted += int(res.Counters.FaultsDone)
		b.checkSweep(res)
		setup = append(setup, cache.seconds)
		p.ops = int(res.Counters.FaultsDone)
		p.cycles = cache.cycles + faulty
		p.seconds = dt
		if !traced {
			return p, nil
		}
		tr.profile("sweep", spec.Profile)
		es.passes++
		es.faults += float64(res.Counters.FaultsDone)
		es.addProfile(spec.Profile.Snapshot(), campaignWorkers)
		es.replayed += float64(res.Counters.ReplayedCycles)
		es.allocs += float64(a1 - a0)
		forks += float64(res.Counters.Forks)
		early += float64(res.Counters.EarlyStops)
		builds += float64(res.Counters.GoldenRuns)
		hits += float64(res.Counters.GoldenHits)
		for _, c := range res.Cells {
			cellMS = append(cellMS, float64(c.WallMS))
		}
		return p, nil
	})
	if err != nil {
		return err
	}
	if !b.traced {
		b.setupSeconds(setup)
		return nil
	}
	es.report(b, "campaign")
	b.set("campaign.forks_per_fault", "forks", forks/es.faults)
	b.set("campaign.early_stop_frac", "ratio", early/es.faults)
	b.set("sweep.worker_busy_frac", "ratio", es.busy/es.capacity)
	b.set("sweep.golden_builds", "count", builds/es.passes)
	b.set("sweep.golden_hits", "count", hits/es.passes)
	b.set("sweep.golden_s", "s", b.tr.selfSeconds("sweep.BuildCPUGolden")/es.passes)
	var total float64
	for _, s := range es.phases {
		total += s
	}
	b.set("sweep.golden_share", "ratio", es.phases[obs.PhaseGolden]/total)
	b.set("sweep.journal_s", "s", es.phases[obs.PhaseJournal]/es.passes)
	b.set("sweep.cell_ms.p50", "ms", quantile(cellMS, 0.5))
	b.set("sweep.cell_ms.p90", "ms", quantile(cellMS, 0.9))
	return nil
}

// checkSweep checks one sweep's cells: every fault classified, golden
// cycles as recorded, golden cache used once per (ISA, workload), and
// digests reproduced.
func (b *bench) checkSweep(res *sweep.Result) {
	want := len(isaNames) * len(workloads.Names()) * len(sweepTargets) * len(sweepModels)
	if len(res.Cells) != want {
		b.fail("sweep ran %d cells, want %d", len(res.Cells), want)
	}
	goldens := want / (len(sweepTargets) * len(sweepModels))
	if res.Counters.GoldenRuns != goldens || res.Counters.GoldenHits != want-goldens {
		b.fail("sweep golden cache: %d builds and %d hits, want %d and %d",
			res.Counters.GoldenRuns, res.Counters.GoldenHits, goldens, want-goldens)
	}
	n := b.size.Faults.Sweep
	for _, c := range res.Cells {
		if c.Faults != n || c.Masked+c.SDC+c.Crash != n {
			b.fail("sweep cell %s classified %d of %d faults", c.Key, c.Masked+c.SDC+c.Crash, n)
		}
		gkey := c.Cell.ISA + "/" + c.Cell.Workload
		if b.expect != nil && b.expect.Golden[gkey].Cycles != c.GoldenCycles {
			b.fail("sweep cell %s golden cycles %d, recorded %d", c.Key, c.GoldenCycles, b.expect.Golden[gkey].Cycles)
		}
		b.checkDigest(c.Key, c.Digest, c.Masked, c.SDC, c.Crash)
	}
}
