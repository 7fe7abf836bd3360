// Differential equivalence suite for the accelerator campaign engine: the
// test-only serial rebuild-per-fault reference, the 1-worker fork/reset
// path and the 8-worker fork/reset path must produce bit-identical
// per-fault verdict sequences and AVF numbers for every Table IV
// design/component and both fault-model families — the accelerator
// counterpart of the CPU side's fork_equiv_test.
package accel_test

import (
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/machsuite"
)

// variants are the dispatched worker counts that must agree with the
// rebuild reference.
var variants = []struct {
	name    string
	workers int
}{
	{"fork-reset-1w", 1},
	{"fork-reset-8w", 8},
}

func mustRun(t *testing.T, cfg accel.CampaignConfig) *accel.CampaignResult {
	t.Helper()
	res, err := accel.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustReference(t *testing.T, cfg accel.CampaignConfig) *accel.CampaignResult {
	t.Helper()
	res, err := accel.RebuildReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertEqualResults(t *testing.T, label string, ref, got *accel.CampaignResult) {
	t.Helper()
	if len(got.Records) != len(ref.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(ref.Records))
	}
	for i := range ref.Records {
		if got.Records[i] != ref.Records[i] {
			t.Fatalf("%s: record %d diverged:\n  got  %+v\n  want %+v", label, i, got.Records[i], ref.Records[i])
		}
	}
	if got.Counts != ref.Counts {
		t.Fatalf("%s: counts diverged: %+v vs %+v", label, got.Counts, ref.Counts)
	}
	if got.AVF() != ref.AVF() {
		t.Fatalf("%s: AVF %v vs %v", label, got.AVF(), ref.AVF())
	}
	if got.GoldenCycles != ref.GoldenCycles || got.TargetBits != ref.TargetBits {
		t.Fatalf("%s: golden metadata diverged", label)
	}
}

// TestAccelCampaignEquivalence sweeps every design × component × model and
// checks all schedules agree with the serial rebuild reference.
func TestAccelCampaignEquivalence(t *testing.T) {
	const faults = 5
	for _, spec := range machsuite.All() {
		for _, comp := range spec.Targets {
			for _, model := range []core.Model{core.Transient, core.StuckAt1} {
				cfg := accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: comp.Name,
					Model: model, Faults: faults, Seed: 77,
				}
				label := fmt.Sprintf("%s/%s/%s", spec.Name, comp.Name, model)
				ref := mustReference(t, cfg)
				if ref.Counts.Total() != faults {
					t.Fatalf("%s: classified %d of %d", label, ref.Counts.Total(), faults)
				}
				for _, v := range variants {
					c := cfg
					c.Workers = v.workers
					assertEqualResults(t, label+"/"+v.name, ref, mustRun(t, c))
				}
			}
		}
	}
}

// TestAccelCampaignEquivalenceStuckAt0 spot-checks the third fault model on
// one design (the full sweep above covers transient and stuck-at-1).
func TestAccelCampaignEquivalenceStuckAt0(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.StuckAt0, Faults: 8, Seed: 5,
	}
	ref := mustReference(t, cfg)
	for _, v := range variants {
		c := cfg
		c.Workers = v.workers
		assertEqualResults(t, "gemm/MATRIX1/stuck-at-0/"+v.name, ref, mustRun(t, c))
	}
}

// TestAccelCampaignWindowOverrideEquivalence runs the Figure 17 common-
// window sweep shape: different WindowOverride values, every schedule in
// agreement, and the window actually governing the drawn cycles.
func TestAccelCampaignWindowOverrideEquivalence(t *testing.T) {
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
			Model: core.Transient, Faults: 8, Seed: 21,
			WindowOverride: window,
		}
		ref := mustReference(t, cfg)
		for _, r := range ref.Records {
			if r.Fault.Cycle < 1 || r.Fault.Cycle > window {
				t.Fatalf("window=%d: drawn cycle %d outside [1, %d]", window, r.Fault.Cycle, window)
			}
		}
		for _, v := range variants {
			c := cfg
			c.Workers = v.workers
			assertEqualResults(t, fmt.Sprintf("gemm/window=%d/%s", window, v.name), ref, mustRun(t, c))
		}
	}
}

// TestAccelMaskPopulationWindowIndependentOfSchedule: the drawn mask
// population itself (not just the verdicts) must be identical across
// schedules — the §V-G comparability requirement that lets different
// designs share one fault population.
func TestAccelMaskPopulationWindowIndependentOfSchedule(t *testing.T) {
	spec, err := machsuite.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	a := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "REAL",
		Model: core.Transient, Faults: 32, Seed: 9, Workers: 7,
	})
	b := mustReference(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "REAL",
		Model: core.Transient, Faults: 32, Seed: 9,
	})
	for i := range a.Records {
		if a.Records[i].Fault != b.Records[i].Fault {
			t.Fatalf("mask %d differs across schedules: %v vs %v", i, a.Records[i].Fault, b.Records[i].Fault)
		}
	}
}

// BenchmarkAccelRebuildReference times the serial rebuild-per-fault
// reference on the campaign BenchmarkAccelCampaign (repository root) runs
// through the dispatcher, so the two read as a setup-cost ablation: same
// faults, same verdicts, one harness build per fault versus one fork per
// worker.
func BenchmarkAccelRebuildReference(b *testing.B) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := accel.RebuildReference(accel.CampaignConfig{
			Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
			Model: core.Transient, Faults: 64, Seed: 13,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Counts.Total() != 64 {
			b.Fatalf("classified %d of 64", res.Counts.Total())
		}
	}
}
