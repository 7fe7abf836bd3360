// Differential equivalence suite for checkpoint-ladder dispatch on the
// accelerator campaign engine: a campaign forking faulty runs from
// mid-window rungs must be bit-identical — per-fault verdicts, AVF,
// verdict-stream digest — to the single-checkpoint campaign across every
// Table IV design/component, both fault-model families, serial and
// parallel schedules, and overridden injection windows.
package accel_test

import (
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/machsuite"
	"marvel/internal/sweep"
)

// runLadderPair runs the same accel campaign flat and laddered, asserts
// verdict-stream digest equality, and returns both results.
func runLadderPair(t *testing.T, label string, cfg accel.CampaignConfig, rungs int) (flat, laddered *accel.CampaignResult) {
	t.Helper()
	base := cfg
	base.LadderRungs = 0
	flat = mustRun(t, base)
	lad := cfg
	lad.LadderRungs = rungs
	laddered = mustRun(t, lad)
	if got, want := sweep.DigestAccelRecords(laddered.Records), sweep.DigestAccelRecords(flat.Records); got != want {
		t.Errorf("%s: ladder(%d) digest %s != single-checkpoint digest %s", label, rungs, got, want)
	}
	return flat, laddered
}

// TestAccelLadderEquivalenceAllDesigns sweeps every design × component ×
// model with a mid-depth ladder and checks full record equality against
// the flat campaign.
func TestAccelLadderEquivalenceAllDesigns(t *testing.T) {
	const faults = 5
	for _, spec := range machsuite.All() {
		for _, comp := range spec.Targets {
			for _, model := range []core.Model{core.Transient, core.StuckAt1} {
				cfg := accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: comp.Name,
					Model: model, Faults: faults, Seed: 77, Workers: 2,
				}
				label := fmt.Sprintf("%s/%s/%s", spec.Name, comp.Name, model)
				flat, laddered := runLadderPair(t, label, cfg, 4)
				assertEqualResults(t, label, flat, laddered)
				if model.Permanent() && laddered.Forking.RungHits != 0 {
					t.Errorf("%s: permanent campaign reported %d rung hits", label, laddered.Forking.RungHits)
				}
			}
		}
	}
}

// TestAccelLadderEquivalenceSerialAndParallel checks the rung-sorted
// dispatch order does not leak into results under any worker count.
func TestAccelLadderEquivalenceSerialAndParallel(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cfg := accel.CampaignConfig{
			Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
			Model: core.Transient, Faults: 24, Seed: 13, Workers: workers,
		}
		label := fmt.Sprintf("gemm/%dw", workers)
		flat, laddered := runLadderPair(t, label, cfg, 6)
		assertEqualResults(t, label, flat, laddered)
	}
}

// TestAccelLadderEquivalenceWindowOverride: the ladder is rebuilt per
// window (rungs are placed inside the override), including a window far
// past task completion where late faults land after Done and the ladder
// truncates early — those faults must classify Masked either way.
func TestAccelLadderEquivalenceWindowOverride(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	probe := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Faults: 1, Seed: 1, Workers: 1,
	})
	golden := probe.GoldenCycles
	for _, window := range []uint64{golden / 2, golden, golden * 4} {
		cfg := accel.CampaignConfig{
			Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
			Model: core.Transient, Faults: 12, Seed: 21, Workers: 2,
			WindowOverride: window,
		}
		label := fmt.Sprintf("gemm/window=%d", window)
		flat, laddered := runLadderPair(t, label, cfg, 6)
		assertEqualResults(t, label, flat, laddered)
	}
}

// TestAccelLadderRebuildReferenceIgnoresLadder: the serial rebuild
// reference reconstructs each run from scratch and must not be perturbed
// by a ladder setting (it reports zero rungs and rung hits).
func TestAccelLadderRebuildReferenceIgnoresLadder(t *testing.T) {
	spec, err := machsuite.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "REAL",
		Model: core.Transient, Faults: 8, Seed: 9, Workers: 1,
	}
	laddered := cfg
	laddered.LadderRungs = 8
	got := mustReference(t, laddered)
	ref := mustRun(t, cfg)
	assertEqualResults(t, "reference-with-ladder", ref, got)
	if got.Forking.Rungs != 0 || got.Forking.RungHits != 0 {
		t.Errorf("rebuild reference reported ladder stats: %d rungs, %d hits",
			got.Forking.Rungs, got.Forking.RungHits)
	}
}

// TestAccelLadderForkStatsAccounting: the ladder must actually be used
// (rung hits > 0) and must reduce replayed pre-injection cycles versus
// the flat campaign, with every fault accounted a fork or a reuse.
func TestAccelLadderForkStatsAccounting(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Faults: 32, Seed: 47, Workers: 2,
	}
	flat, laddered := runLadderPair(t, "gemm/forkstats", cfg, 8)
	f := laddered.Forking
	if f.Rungs <= 0 {
		t.Fatalf("ladder campaign reported %d rungs", f.Rungs)
	}
	if f.RungHits == 0 {
		t.Error("no faulty run ever forked from a mid-window rung")
	}
	if f.Forks+f.ReuseHits != 32 {
		t.Errorf("forks(%d) + reuses(%d) != faults(32)", f.Forks, f.ReuseHits)
	}
	if f.ReplayedCycles >= flat.Forking.ReplayedCycles {
		t.Errorf("ladder replayed %d pre-injection cycles, flat campaign %d — the ladder should replay less",
			f.ReplayedCycles, flat.Forking.ReplayedCycles)
	}
}

func TestAccelLadderRejectsNegativeRungs(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	_, err = accel.RunCampaign(accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Faults: 1, Seed: 1, LadderRungs: -1,
	})
	if err == nil {
		t.Fatal("negative LadderRungs accepted")
	}
}
