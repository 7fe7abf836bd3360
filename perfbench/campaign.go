package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/machsuite"
	"marvel/internal/obs"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// campaignWorkers keeps every campaign within two CPUs, the concurrency
// the benchmark is sized for.
const campaignWorkers = 2

// cpuCell is one CPU campaign of the campaign workload.
type cpuCell struct{ isa, workload, target string }

func (c cpuCell) key() string { return c.isa + "/" + c.workload + "/" + c.target }

// campaignCells are three transient PRF campaigns whose faults are mostly
// masked, so most faulty runs go to the end of the program.
var campaignCells = []cpuCell{
	{"riscv", "qsort", "prf"},
	{"x86", "crc32", "prf"},
	{"arm", "sha", "prf"},
}

// engineStats accumulates one engine's per-fault observations over the
// traced passes.
type engineStats struct {
	passes, faults float64
	phases         [obs.NumPhases]float64
	busy, capacity float64 // Σ worker-lane busy seconds, Σ workers × wall
	replayed       float64
	pages          float64
	allocs         float64
}

func (e *engineStats) addProfile(s obs.ProfileSnapshot, workers int) {
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		e.phases[ph] += phaseSeconds(s, ph)
	}
	e.busy += workerBusy(s)
	e.capacity += float64(workers) * s.WallSec
}

// report sets the metrics both engines share, under prefix.
func (e *engineStats) report(b *bench, prefix string) {
	for _, ph := range []obs.Phase{obs.PhaseLadder, obs.PhaseFork, obs.PhaseReset, obs.PhaseReplay, obs.PhaseFaulty, obs.PhaseClassify} {
		b.set(prefix+"."+ph.String()+"_s", "s", e.phases[ph]/e.passes)
	}
	b.set(prefix+".replayed_cycles_per_fault", "cycles", e.replayed/e.faults)
	b.set(prefix+".worker_busy_frac", "ratio", e.busy/e.capacity)
	b.set(prefix+".allocs_per_fault", "allocs", e.allocs/e.faults)
}

// runCampaign measures the CPU injection path: golden prep through
// sweep.BuildCPUGolden, then campaign.RunWithGolden on each cell with
// two workers, valid-only transient faults and the ladder off.
func runCampaign(b *bench) error {
	pre := config.TableII()
	goldens := make([]*sweep.CPUGolden, len(campaignCells))
	if err := b.setupRounds(func() error {
		for i, c := range campaignCells {
			sp := b.tr.begin("sweep.BuildCPUGolden", c.key(), 0)
			g, err := sweep.BuildCPUGolden(c.isa, c.workload, pre)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			goldens[i] = g
		}
		return nil
	}); err != nil {
		return err
	}
	for i, c := range campaignCells {
		ws, err := workloads.ByName(c.workload)
		if err != nil {
			return err
		}
		info := goldens[i].Golden.Info
		if !bytes.Equal(info.Output, ws.Ref()) {
			b.fail("golden %s output differs from the pure-Go reference", c.key())
		}
		b.checkGolden(c.isa+"/"+c.workload, goldenRef{Cycles: info.Cycles, Insts: info.Insts})
	}

	var es engineStats
	var post, early, sets, forks float64
	runPass := func(traced bool, workers int) (pass, error) {
		var p pass
		tr := b.tr
		if !traced {
			tr = nil
		}
		root := tr.begin("campaign.pass", "", 0)
		defer tr.end(root)
		for i, c := range campaignCells {
			n := b.size.Faults.Campaign
			cfg := campaign.Config{
				Image:   goldens[i].Image,
				Preset:  pre,
				Target:  c.target,
				Model:   core.Transient,
				Faults:  n,
				Seed:    b.seed,
				Domain:  core.DomainValidOnly,
				Workers: workers,
			}
			if traced {
				cfg.Profile = obs.NewProfiler()
			}
			var a0, a1 uint64
			if traced {
				a0, _ = allocs()
			}
			sp := tr.begin("campaign.RunWithGolden", c.key(), root)
			t0 := time.Now()
			res, err := campaign.RunWithGolden(cfg, goldens[i].Golden)
			dt := time.Since(t0).Seconds()
			tr.end(sp)
			if traced {
				a1, _ = allocs()
			}
			b.attempted += n
			if err != nil {
				return p, fmt.Errorf("campaign %s: %w", c.key(), err)
			}
			if len(res.Records) != n || res.Counts.Total() != n {
				b.fail("campaign %s classified %d of %d faults", c.key(), res.Counts.Total(), n)
			}
			lo := res.Golden.WindowLo
			for _, r := range res.Records {
				p.cycles += r.Verdict.Cycles - lo
			}
			p.ops += n
			p.seconds += dt
			// Verdicts do not depend on the worker count, so the
			// single-worker rerun must reproduce the digest too.
			b.checkDigest(c.key(), sweep.DigestCPURecords(res.Records), res.Counts.Masked, res.Counts.SDC, res.Counts.Crash)
			if !traced {
				continue
			}
			tr.profile(c.key(), cfg.Profile)
			es.addProfile(cfg.Profile.Snapshot(), workers)
			es.faults += float64(n)
			es.replayed += float64(res.Forking.ReplayedCycles)
			es.pages += float64(res.Forking.PagesCopied)
			es.allocs += float64(a1 - a0)
			sets += float64(res.Forking.CacheSetsRestored)
			forks += float64(res.Forking.Forks)
			early += float64(res.Counts.EarlyStops)
			for _, r := range res.Records {
				if first, ok := firstInjection(r.Mask); ok && r.Verdict.Cycles > first {
					post += float64(r.Verdict.Cycles - first)
				}
			}
		}
		if traced {
			es.passes++
		}
		return p, nil
	}
	fps, err := b.timed(func(traced bool) (pass, error) { return runPass(traced, campaignWorkers) })
	if err != nil || !b.traced {
		return err
	}
	b.set("campaign.golden_s", "s", b.tr.selfSeconds("sweep.BuildCPUGolden")/float64(b.size.SetupRounds))
	es.report(b, "campaign")
	b.set("campaign.pages_copied_per_fault", "pages", es.pages/es.faults)
	b.set("campaign.post_injection_cycles_per_fault", "cycles", post/es.faults)
	b.set("campaign.early_stop_frac", "ratio", early/es.faults)
	b.set("campaign.sets_restored_per_fault", "sets", sets/es.faults)
	b.set("campaign.forks_per_fault", "forks", forks/es.faults)
	// One rerun at a single worker gives the campaign layer's scaling.
	runtime.GC()
	one, err := runPass(false, 1)
	if err != nil {
		return err
	}
	fps1 := float64(one.ops) / one.seconds
	b.set("campaign.faults_per_s_1w", "faults/s", fps1)
	b.set("campaign.scaling_eff", "ratio", fps/(campaignWorkers*fps1))
	return nil
}

// firstInjection is the cycle of a mask's first transient fault.
func firstInjection(m core.Mask) (uint64, bool) {
	first, ok := uint64(0), false
	for _, f := range m.Faults {
		if f.Model == core.Transient && (!ok || f.Cycle < first) {
			first, ok = f.Cycle, true
		}
	}
	return first, ok
}

// accelCell is one Table IV component campaign.
type accelCell struct {
	design    int // index into the prepared goldens
	component string
}

// runAccel measures the accelerator engine: golden prep through
// sweep.BuildAccelGolden for the eight MachSuite designs, then
// accel.RunCampaignWithGolden on every Table IV component with two
// workers and transient faults.
func runAccel(b *bench) error {
	specs := machsuite.All()
	goldens := make([]*sweep.AccelGolden, len(specs))
	var cells []accelCell
	for i, s := range specs {
		for _, c := range s.Targets {
			cells = append(cells, accelCell{design: i, component: c.Name})
		}
	}
	if err := b.setupRounds(func() error {
		for i, s := range specs {
			sp := b.tr.begin("sweep.BuildAccelGolden", s.Name, 0)
			g, err := sweep.BuildAccelGolden(s.Name)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			goldens[i] = g
		}
		return nil
	}); err != nil {
		return err
	}
	for i, s := range specs {
		if !bytes.Equal(goldens[i].Golden.Output, s.Ref()) {
			b.fail("accel golden %s output differs from the pure-Go reference", s.Name)
		}
		b.checkGolden(sweep.AccelGoldenKey(s.Name), goldenRef{Cycles: goldens[i].Golden.Cycles})
	}

	var es engineStats
	_, err := b.timed(func(traced bool) (pass, error) {
		var p pass
		tr := b.tr
		if !traced {
			tr = nil
		}
		root := tr.begin("accel.pass", "", 0)
		defer tr.end(root)
		for _, c := range cells {
			g := goldens[c.design]
			key := g.Spec.Name + "/" + c.component
			n := b.size.Faults.Accel
			cfg := accel.CampaignConfig{
				Design:  g.Spec.Design,
				Task:    g.Spec.Task,
				Target:  c.component,
				Model:   core.Transient,
				Faults:  n,
				Seed:    b.seed,
				Workers: campaignWorkers,
			}
			if traced {
				cfg.Profile = obs.NewProfiler()
			}
			var a0, a1 uint64
			if traced {
				a0, _ = allocs()
			}
			sp := tr.begin("accel.RunCampaignWithGolden", key, root)
			t0 := time.Now()
			res, err := accel.RunCampaignWithGolden(cfg, g.Golden)
			dt := time.Since(t0).Seconds()
			tr.end(sp)
			if traced {
				a1, _ = allocs()
			}
			b.attempted += n
			if err != nil {
				return p, fmt.Errorf("accel campaign %s: %w", key, err)
			}
			if len(res.Records) != n || res.Counts.Total() != n {
				b.fail("accel campaign %s classified %d of %d faults", key, res.Counts.Total(), n)
			}
			b.checkDigest(key, sweep.DigestAccelRecords(res.Records), res.Counts.Masked, res.Counts.SDC, res.Counts.Crash)
			for _, r := range res.Records {
				p.cycles += r.Verdict.Cycles
			}
			p.ops += n
			p.seconds += dt
			if traced {
				tr.profile(key, cfg.Profile)
				es.addProfile(cfg.Profile.Snapshot(), campaignWorkers)
				es.faults += float64(n)
				es.replayed += float64(res.Forking.ReplayedCycles)
				es.pages += float64(res.Forking.PagesCopied)
				es.allocs += float64(a1 - a0)
			}
		}
		if traced {
			es.passes++
		}
		return p, nil
	})
	if err != nil || !b.traced {
		return err
	}
	b.set("accel.golden_s", "s", b.tr.selfSeconds("sweep.BuildAccelGolden")/float64(b.size.SetupRounds))
	es.report(b, "accel")
	b.set("accel.pages_copied_per_fault", "pages", es.pages/es.faults)
	return standaloneThroughput(b, specs)
}

// standaloneThroughput times accel.NewStandalone plus Standalone.Run on
// every design's golden task: the accelerator cycle kernel alone.
func standaloneThroughput(b *bench, specs []machsuite.Spec) error {
	var cycles, secs float64
	for round := 0; round < b.size.SetupRounds; round++ {
		for _, s := range specs {
			sp := b.tr.begin("accel.Standalone.Run", s.Name, 0)
			t0 := time.Now()
			sa, err := accel.NewStandalone(s.Design, s.Task)
			if err != nil {
				return err
			}
			if err := sa.Run(goldenBudget); err != nil {
				return fmt.Errorf("standalone %s: %w", s.Name, err)
			}
			secs += time.Since(t0).Seconds()
			b.tr.end(sp)
			cycles += float64(sa.Cluster.Cycle())
			out, err := sa.Output()
			if err != nil {
				return err
			}
			if !bytes.Equal(out, s.Ref()) {
				b.fail("standalone %s output differs from the pure-Go reference", s.Name)
			}
		}
	}
	b.set("accel.sim_cycles_per_s", "cycles/s", cycles/secs)
	return nil
}
