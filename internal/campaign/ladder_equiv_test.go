package campaign_test

// Differential equivalence suite for the checkpoint ladder: a campaign
// whose faulty runs fork from the golden's delta checkpoints and stop once
// their state rejoins the golden run must be bit-for-bit indistinguishable
// from the test-only references, which fork nothing and run every fault
// to the end — same verdicts, same HVF divergence points, same
// verdict-stream digest — across every target, model, worker count and
// campaign mode. The ladder only changes where faulty runs start and
// where they may stop, never what they compute.

import (
	"io"
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/isa"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/program/ir"
	"marvel/internal/sweep"
)

// runLadderPair executes cfg through the cold-start reference and through
// the dispatcher, asserting digest equality, and returns both results for
// further inspection.
func runLadderPair(t *testing.T, cfg campaign.Config) (ref, laddered *campaign.Result) {
	t.Helper()
	ref, err := campaign.ColdStartReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	laddered, err = campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweep.DigestCPURecords(laddered.Records), sweep.DigestCPURecords(ref.Records); got != want {
		t.Errorf("laddered digest %s != reference digest %s", got, want)
	}
	return ref, laddered
}

func TestLadderEquivalenceAllTargets(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	for _, target := range campaign.CPUTargets {
		target := target
		t.Run(target, func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Image:   img,
				Preset:  config.Fast(),
				Target:  target,
				Model:   core.Transient,
				Faults:  16,
				Seed:    23,
				HVF:     true,
				Workers: 2,
			}
			flat, laddered := runLadderPair(t, cfg)
			diffResults(t, target, flat, laddered)
		})
	}
}

func TestLadderEquivalenceSerialAndParallel(t *testing.T) {
	// The rung-sorted dispatch order must not leak into results under any
	// worker count (run under -race by the verify script).
	img := compileWorkload(t, "riscv", "sha")
	for _, workers := range []int{1, 8} {
		cfg := campaign.Config{
			Image:   img,
			Preset:  config.Fast(),
			Target:  "prf",
			Model:   core.Transient,
			Faults:  24,
			Seed:    43,
			HVF:     true,
			Domain:  core.DomainValidOnly,
			Workers: workers,
		}
		flat, laddered := runLadderPair(t, cfg)
		if workers == 1 {
			diffResults(t, "serial", flat, laddered)
		} else {
			diffResults(t, "8-workers", flat, laddered)
		}
	}
}

func TestLadderEquivalencePermanentFaults(t *testing.T) {
	// Permanent models never climb the ladder: stuck-at bits must hold
	// from the window start, so every mask forks the window-start
	// checkpoint, and stuck bits are compared state, so no run converges.
	img := compileWorkload(t, "riscv", "crc32")
	for _, m := range []core.Model{core.StuckAt0, core.StuckAt1} {
		cfg := campaign.Config{
			Image:   img,
			Preset:  config.Fast(),
			Target:  "l1d",
			Model:   m,
			Faults:  14,
			Seed:    31,
			Workers: 2,
		}
		flat, laddered := runLadderPair(t, cfg)
		diffResults(t, m.String(), flat, laddered)
		if laddered.Forking.RungHits != 0 {
			t.Errorf("%s: permanent campaign reported %d rung hits", m, laddered.Forking.RungHits)
		}
		if laddered.Forking.Converged != 0 {
			t.Errorf("%s: permanent campaign reported %d converged runs", m, laddered.Forking.Converged)
		}
	}
}

func TestLadderEquivalenceMultiStructure(t *testing.T) {
	// Multi-structure masks carry several transients at different cycles;
	// the rung must honor the EARLIEST one, and faults straddling a rung
	// boundary must still apply in cycle order during the run.
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		MultiTargets: []string{"prf", "l1d", "sq"},
		Model:        core.Transient,
		Faults:       12,
		Seed:         41,
		Workers:      2,
		HVF:          true,
	}
	flat, laddered := runLadderPair(t, cfg)
	diffResults(t, "multi-structure", flat, laddered)
}

func TestLadderEquivalenceMultiBit(t *testing.T) {
	img := compileWorkload(t, "arm", "bitcount")
	cfg := campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		Target:       "prf",
		Model:        core.Transient,
		Faults:       12,
		BitsPerFault: 3,
		Seed:         29,
		Workers:      2,
	}
	flat, laddered := runLadderPair(t, cfg)
	diffResults(t, "multi-bit", flat, laddered)
}

func TestLadderEquivalenceEarlyTermination(t *testing.T) {
	img := compileWorkload(t, "riscv", "dijkstra")
	cfg := campaign.Config{
		Image:            img,
		Preset:           config.Fast(),
		Target:           "prf",
		Model:            core.Transient,
		Faults:           24,
		Seed:             37,
		EarlyTermination: true,
		Workers:          2,
	}
	flat, laddered := runLadderPair(t, cfg)
	diffResults(t, "earlyterm", flat, laddered)
	// An armed early-termination watch is compared state: such runs end
	// by the dead-fault proof or run to the end, never by convergence.
	if laddered.Forking.Converged != 0 {
		t.Errorf("early-termination campaign reported %d converged runs", laddered.Forking.Converged)
	}
}

func TestLadderEquivalenceUnderTracing(t *testing.T) {
	// Tracing armed on a laddered campaign must neither change verdicts
	// nor differ from the reference's digest.
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:   img,
		Preset:  config.Fast(),
		Target:  "prf",
		Model:   core.Transient,
		Faults:  20,
		Seed:    7,
		HVF:     true,
		Workers: 2,
		Trace:   obs.NewJSONLSink(io.Discard),
	}
	runLadderPair(t, cfg)
}

// TestLadderTracedNarrationIdentical pins the narration contract: a run
// restored from a delta checkpoint must emit the same arming, flip and
// verdict events — same kinds, cycles, targets, bits and details — as the
// same mask run by the cold-start reference. Event timestamps are
// absolute cycles and the armed event is stamped at the window-start
// checkpoint cycle regardless of fork point, and a traced single-fault
// run arms its target's watch for narration (compared state, so it never
// converges), so the streams are literally identical.
func TestLadderTracedNarrationIdentical(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:   img,
		Preset:  config.Fast(),
		Target:  "prf",
		Model:   core.Transient,
		Faults:  12,
		Seed:    17,
		HVF:     true,
		Workers: 1,
	}
	capture := func(run func(campaign.Config) (*campaign.Result, error)) [][]obs.Event {
		sink := &sliceSink{}
		c := cfg
		c.Trace = sink
		if _, err := run(c); err != nil {
			t.Fatal(err)
		}
		// Split the serial stream into per-run slices at armed events:
		// dispatch order differs between the two campaigns (the ladder
		// sorts by rung), so runs are matched by their armed coordinates.
		var runs [][]obs.Event
		for _, e := range sink.events {
			if e.Kind == obs.KindFaultArmed && (len(runs) == 0 || hasVerdict(runs[len(runs)-1])) {
				runs = append(runs, nil)
			}
			if len(runs) > 0 {
				runs[len(runs)-1] = append(runs[len(runs)-1], e)
			}
		}
		return runs
	}
	flatRuns := capture(campaign.ColdStartReference)
	ladRuns := capture(campaign.Run)
	if len(flatRuns) != len(ladRuns) || len(flatRuns) != cfg.Faults {
		t.Fatalf("run counts differ: reference %d, ladder %d, want %d", len(flatRuns), len(ladRuns), cfg.Faults)
	}
	matched := 0
	for _, fr := range flatRuns {
		key := fr[0]
		for _, lr := range ladRuns {
			if lr[0] == key {
				matched++
				if len(fr) != len(lr) {
					t.Errorf("run armed at bit %d: %d events reference vs %d laddered", key.Bit, len(fr), len(lr))
					break
				}
				for i := range fr {
					if fr[i] != lr[i] {
						t.Errorf("run armed at bit %d, event %d differs:\n reference: %+v\n ladder:    %+v", key.Bit, i, fr[i], lr[i])
					}
				}
				break
			}
		}
	}
	if matched != cfg.Faults {
		t.Errorf("only %d/%d runs matched by armed event", matched, cfg.Faults)
	}
}

// sliceSink retains every event unbounded (single-worker runs only).
type sliceSink struct{ events []obs.Event }

func (s *sliceSink) Emit(e obs.Event) { s.events = append(s.events, e) }

func hasVerdict(events []obs.Event) bool {
	for _, e := range events {
		if e.Kind == obs.KindVerdict {
			return true
		}
	}
	return false
}

func TestLadderForkStatsAccounting(t *testing.T) {
	img := compileWorkload(t, "riscv", "sha")
	cfg := campaign.Config{
		Image:   img,
		Preset:  config.Fast(),
		Target:  "prf",
		Model:   core.Transient,
		Faults:  32,
		Seed:    47,
		Workers: 2,
	}
	ref, res := runLadderPair(t, cfg)
	f := res.Forking
	if f.Rungs <= 0 {
		t.Fatalf("campaign reported %d checkpoints", f.Rungs)
	}
	if f.RungHits == 0 {
		t.Error("no faulty run ever forked from a mid-window checkpoint")
	}
	if f.Forks+f.ReuseHits != 32 {
		t.Errorf("forks(%d) + reuses(%d) != faults(32)", f.Forks, f.ReuseHits)
	}
	// A window-start fork replays from WindowLo to each fault's injection.
	var windowStart uint64
	for _, r := range ref.Records {
		windowStart += r.Mask.Faults[0].Cycle - ref.Golden.WindowLo
	}
	if f.ReplayedCycles >= windowStart {
		t.Errorf("ladder replayed %d pre-injection cycles, window-start forks %d — the ladder should replay less",
			f.ReplayedCycles, windowStart)
	}
	if f.Converged == 0 || f.Converged > uint64(res.Counts.Masked) {
		t.Errorf("%d converged runs, want between 1 and the %d masked ones", f.Converged, res.Counts.Masked)
	}
	var maxSkip uint64
	for _, r := range res.Records {
		if r.Verdict.Outcome == classify.Masked {
			maxSkip += res.Golden.Cycles - r.Mask.Faults[0].Cycle
		}
	}
	if f.ConvergedCycles == 0 || f.ConvergedCycles > maxSkip {
		t.Errorf("converged runs skipped %d golden cycles, want between 1 and %d", f.ConvergedCycles, maxSkip)
	}
}

// TestLadderSweepCellsMatchColdStartReference checks the sweep's CPU
// cells, which fork from delta checkpoints and stop converged runs,
// against the cold-start reference run standalone on the same cell.
func TestLadderSweepCellsMatchColdStartReference(t *testing.T) {
	spec := sweep.Spec{
		ISAs:      []string{"riscv"},
		Workloads: []string{"crc32", "sha"},
		Targets:   []string{"prf", "prf+rob"},
		Models:    []string{"transient"},
		Faults:    8,
		Seed:      19,
		Preset:    "fast",
	}
	res, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("sweep ran %d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		targets, err := sweep.SplitTarget(c.Cell.Target)
		if err != nil {
			t.Fatal(err)
		}
		cfg := campaign.Config{
			Image:  compileWorkload(t, c.Cell.ISA, c.Cell.Workload),
			Preset: config.Fast(),
			Model:  core.Transient,
			Faults: spec.Faults,
			Seed:   spec.Seed,
		}
		if len(targets) > 1 {
			cfg.MultiTargets = targets
		} else {
			cfg.Target = targets[0]
		}
		ref, err := campaign.ColdStartReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := sweep.DigestCPURecords(ref.Records); c.Digest != want {
			t.Errorf("%s: sweep digest %s != cold-start reference %s", c.Key, c.Digest, want)
		}
	}
}

// TestLadderConvergenceDifferential covers cells where runs do converge:
// the campaign must still match the cold-start reference verdict for
// verdict, HVF view included, and must report converged runs. The l1i
// cell fails if the comparison skips L1I (its flipped code lines stay
// cached and differ from the golden ones, so none of its runs may
// converge), and the patricia cells on tiny caches, whose dirty lines
// reach main memory, fail if it skips L2 or the memory pages.
func TestLadderConvergenceDifferential(t *testing.T) {
	tiny := config.Fast()
	tiny.Hier.L1D.SizeBytes = 1 << 10
	tiny.Hier.L2.SizeBytes = 2 << 10
	cells := []struct {
		isa, workload, target string
		preset                config.Preset
		faults                int
		converges             bool
	}{
		{"riscv", "qsort", "prf", config.Fast(), 24, true},
		{"x86", "crc32", "prf", config.Fast(), 24, true},
		{"arm", "sha", "prf", config.Fast(), 24, true},
		{"arm", "sha", "rob", config.Fast(), 24, true},
		{"riscv", "qsort", "l1d", config.Fast(), 24, true},
		{"riscv", "qsort", "l1i", config.Fast(), 48, false},
		{"riscv", "patricia", "l2", tiny, 48, true},
		{"riscv", "patricia", "l1d", tiny, 48, true},
	}
	for _, c := range cells {
		c := c
		name := c.preset.Name + "/" + c.isa + "/" + c.workload + "/" + c.target
		if c.preset.Hier != config.Fast().Hier {
			name = "tiny/" + c.isa + "/" + c.workload + "/" + c.target
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Image:   compileWorkload(t, c.isa, c.workload),
				Preset:  c.preset,
				Target:  c.target,
				Model:   core.Transient,
				Faults:  c.faults,
				Seed:    11,
				Domain:  core.DomainValidOnly,
				HVF:     true,
				Workers: 2,
			}
			ref, res := runLadderPair(t, cfg)
			diffResults(t, name, ref, res)
			if c.converges && res.Forking.Converged == 0 {
				t.Errorf("%s: no run converged (%d masked)", name, res.Counts.Masked)
			}
			t.Logf("%s: %d of %d runs converged, %d golden cycles not simulated",
				name, res.Forking.Converged, len(res.Records), res.Forking.ConvergedCycles)
		})
	}
}

// TestLadderProgramWithoutDirectives covers golden prep's fallback: a
// program without a checkpoint directive gets a cycle-0 base and a window
// spanning the whole run, checkpoints inside it, and verdicts equal to
// the cold-start reference's.
func TestLadderProgramWithoutDirectives(t *testing.T) {
	b := ir.New("no-directives")
	b.SetOutput(0x20000, 8)
	s := b.Temp()
	b.ConstTo(s, 0)
	b.LoopN(400, func(i ir.Val) {
		b.Mov(s, b.Add(s, b.Mul(i, i)))
	})
	b.Store(b.Const(0x20000), 0, s, 8)
	b.Halt()
	img, err := program.Compile(isa.RV64L{}, b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{
		Image:   img,
		Preset:  config.Fast(),
		Target:  "prf",
		Model:   core.Transient,
		Faults:  16,
		Seed:    5,
		Domain:  core.DomainValidOnly,
		HVF:     true,
		Workers: 2,
	}
	ref, res := runLadderPair(t, cfg)
	diffResults(t, "no-directives", ref, res)
	if res.Golden.WindowLo != 0 || res.Golden.WindowHi != res.Golden.Cycles {
		t.Errorf("window [%d, %d), want the whole %d-cycle run", res.Golden.WindowLo, res.Golden.WindowHi, res.Golden.Cycles)
	}
	if res.Forking.Rungs == 0 || res.Forking.RungHits == 0 {
		t.Errorf("%d checkpoints, %d rung hits: the whole-run window should carry checkpoints", res.Forking.Rungs, res.Forking.RungHits)
	}
}

// TestLadderExplainNarratesConvergence re-runs faults of a cell whose
// runs converge through Explain: a run that converges narrates it, and
// its explained verdict equals the campaign's record.
func TestLadderExplainNarratesConvergence(t *testing.T) {
	cfg := campaign.Config{
		Image:   compileWorkload(t, "arm", "sha"),
		Preset:  config.Fast(),
		Target:  "rob",
		Model:   core.Transient,
		Faults:  24,
		Seed:    11,
		Domain:  core.DomainValidOnly,
		HVF:     true,
		Workers: 2,
	}
	g, err := campaign.PrepareGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunWithGolden(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	narrated := 0
	for i := range res.Records {
		ex, err := campaign.ExplainWithGolden(cfg, g, i)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Verdict != res.Records[i].Verdict {
			t.Errorf("fault %d: explained verdict %+v != record %+v", i, ex.Verdict, res.Records[i].Verdict)
		}
		for _, e := range ex.Events {
			if e.Kind == obs.KindConverged {
				narrated++
				if e.N != res.Golden.Cycles-e.Cycle {
					t.Errorf("fault %d: converged at cycle %d reports %d skipped cycles, want %d", i, e.Cycle, e.N, res.Golden.Cycles-e.Cycle)
				}
			}
		}
	}
	if narrated == 0 || uint64(narrated) > res.Forking.Converged {
		t.Errorf("%d explained runs narrate convergence; the campaign converged %d", narrated, res.Forking.Converged)
	}
}
