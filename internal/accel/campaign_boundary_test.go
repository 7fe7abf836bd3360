package accel

import (
	"bytes"
	"testing"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/program/ir"
)

// hangDesign builds a kernel whose trip count is loaded from the IN SPM:
//
//	x = load32(IN); while (x != 0) x--; store32(OUT, x)
//
// A transient flip in the high bits of the loaded word inflates the trip
// count past the watchdog budget — the deterministic hang the campaign
// must classify as Crash.
func hangDesign(t *testing.T) (*Design, Task) {
	t.Helper()
	b := ir.New("wd")
	inB := b.Const(0x0)
	outB := b.Const(0x100)
	x := b.Temp()
	b.LoadTo(x, inB, 0, 4, false)
	b.While(func() ir.Val { return x }, func() {
		b.Op2I(ir.OpSub, x, x, 1)
	})
	b.Store(outB, 0, x, 4)
	b.Halt()
	d := &Design{
		Name:   "wd",
		Kernel: b.MustProgram(),
		Banks: []BankSpec{
			{Name: "IN", Kind: SPM, Base: 0x0, Size: 64},
			{Name: "OUT", Kind: SPM, Base: 0x100, Size: 64},
		},
		In:  []Xfer{{Arg: 0, Local: 0x0, Len: 4}},
		Out: []Xfer{{Arg: 1, Local: 0x100, Len: 4}},
		FUs: DefaultFUs(),
		Ops: 4,
	}
	task := Task{
		Bufs: []HostBuf{
			{Arg: 0, Addr: 0x1000, Init: []byte{4, 0, 0, 0}, Len: 4},
			{Arg: 1, Addr: 0x2000, Len: 4},
		},
		OutArg: 1,
	}
	return d, task
}

func mustGolden(t *testing.T, d *Design, task Task) (*Standalone, []byte) {
	t.Helper()
	g, err := NewStandalone(d, task)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	out, err := g.Output()
	if err != nil {
		t.Fatal(err)
	}
	return g, out
}

// TestWatchdogExpiryClassifiesCrash: a flip that inflates the loop bound
// past the watchdog budget must come back as Crash/watchdog-timeout, the
// paper's treatment of excessively long executions.
func TestWatchdogExpiryClassifiesCrash(t *testing.T) {
	d, task := hangDesign(t)
	g, out := mustGolden(t, d, task)
	goldenCycles := g.Cluster.TaskCycles()
	budget := uint64(float64(goldenCycles)*4) + 5000

	s, err := NewStandalone(d, task)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bit 30 of the IN word after DMA-in staged it (cycle 2) but
	// before the kernel's load consumes it.
	f := core.Fault{Target: "IN", Bit: 30, Cycle: 2, Model: core.Transient}
	v := runFaulty(s, 0, f, budget, out, nil, nil, 0)
	if v.Outcome != classify.Crash || v.CrashCode != "watchdog-timeout" {
		t.Fatalf("inflated loop bound: verdict %+v, want Crash/watchdog-timeout", v)
	}
	if v.Cycles < budget {
		t.Fatalf("watchdog verdict at cycle %d, before the %d budget", v.Cycles, budget)
	}
}

// TestLateWindowFaultClassifiesMasked: under a WindowOverride larger than
// the task (a slower design's window, Figure 17), faults drawn past this
// design's completion never land and must classify Masked — the paper's
// same-masks comparability requirement.
func TestLateWindowFaultClassifiesMasked(t *testing.T) {
	d := testDesign(t, DefaultFUs())
	task := testTask()
	g, out := mustGolden(t, d, task)
	goldenCycles := g.Cluster.TaskCycles()

	// Direct boundary: a flip scheduled an order of magnitude after
	// completion.
	s, err := NewStandalone(d, task)
	if err != nil {
		t.Fatal(err)
	}
	f := core.Fault{Target: "OUT", Bit: 0, Cycle: goldenCycles * 10, Model: core.Transient}
	v := runFaulty(s, 1, f, uint64(float64(goldenCycles)*4)+5000, out, nil, nil, 0)
	if v.Outcome != classify.Masked {
		t.Fatalf("fault after completion: verdict %+v, want Masked", v)
	}

	// Campaign level: with a 30x window most faults land post-completion;
	// every one of them must be Masked.
	res, err := RunCampaign(CampaignConfig{
		Design: d, Task: task, Target: "OUT",
		Model: core.Transient, Faults: 60, Seed: 3,
		WindowOverride: goldenCycles * 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, r := range res.Records {
		if r.Fault.Cycle > goldenCycles+8 {
			late++
			if r.Verdict.Outcome != classify.Masked {
				t.Fatalf("late fault %v classified %v, want Masked", r.Fault, r.Verdict.Outcome)
			}
		}
	}
	if late == 0 {
		t.Fatal("window override produced no post-completion faults; test is vacuous")
	}
}

// TestStuckAtAppliesBeforeStart: a stuck-at fault must be in force before
// the task starts, so DMA-in writes are corrupted too. in[0] is 0 in the
// golden task, so stuck-at-1 on its bit 7 must surface in the output.
func TestStuckAtAppliesBeforeStart(t *testing.T) {
	d := testDesign(t, DefaultFUs())
	task := testTask()
	g, out := mustGolden(t, d, task)
	goldenCycles := g.Cluster.TaskCycles()

	s, err := NewStandalone(d, task)
	if err != nil {
		t.Fatal(err)
	}
	f := core.Fault{Target: "IN", Bit: 7, Model: core.StuckAt1}
	v := runFaulty(s, 0, f, uint64(float64(goldenCycles)*4)+5000, out, nil, nil, 0)
	if v.Outcome != classify.SDC {
		t.Fatalf("stuck-at-1 on a zero input byte: verdict %+v, want SDC", v)
	}
}

// TestStandaloneForkResetEquivalence: a forked harness, reset after a dirty
// faulty run, must behave exactly like a fresh build.
func TestStandaloneForkResetEquivalence(t *testing.T) {
	d := testDesign(t, DefaultFUs())
	task := testTask()
	g, out := mustGolden(t, d, task)

	base, err := NewStandalone(d, task)
	if err != nil {
		t.Fatal(err)
	}
	fk := base.Fork()
	if !fk.Forked() || base.Forked() {
		t.Fatal("Forked flags wrong")
	}
	// Dirty the fork: stuck-at plus a transient flip, full run.
	fk.Cluster.Banks()[0].Stick(5, 1)
	fk.Cluster.ScheduleFlip(1, 3, 10)
	if err := fk.Run(100000); err != nil {
		t.Fatal(err)
	}
	if fkOut, _ := fk.Output(); bytes.Equal(fkOut, out) {
		t.Fatal("faulty run should have corrupted the output")
	}

	fk.Reset()
	if err := fk.Run(100000); err != nil {
		t.Fatal(err)
	}
	got, err := fk.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, out) {
		t.Fatal("reset fork diverged from the golden run")
	}
	if fk.Cluster.TaskCycles() != g.Cluster.TaskCycles() {
		t.Fatalf("reset fork took %d cycles, golden %d", fk.Cluster.TaskCycles(), g.Cluster.TaskCycles())
	}
	if pages, _ := fk.ForkCounters(); pages == 0 {
		t.Fatal("dirty runs should have materialized CoW pages")
	}
}

// TestAccelCampaignWorkerInvariance: per-fault verdicts and counters must
// not depend on the worker count and must match the rebuild reference
// (small in-package version of the machsuite-wide equivalence suite).
func TestAccelCampaignWorkerInvariance(t *testing.T) {
	d := testDesign(t, DefaultFUs())
	task := testTask()
	ref, err := RebuildReference(CampaignConfig{
		Design: d, Task: task, Target: "IN",
		Model: core.Transient, Faults: 40, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Forking.Forks != 40 || ref.Forking.ReuseHits != 0 {
		t.Fatalf("rebuild reference forking stats wrong: %+v", ref.Forking)
	}
	for _, workers := range []int{1, 4, 8} {
		got, err := RunCampaign(CampaignConfig{
			Design: d, Task: task, Target: "IN",
			Model: core.Transient, Faults: 40, Seed: 12,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(ref.Records) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got.Records), len(ref.Records))
		}
		for i := range ref.Records {
			if got.Records[i] != ref.Records[i] {
				t.Fatalf("workers=%d record %d: %+v vs %+v", workers, i, got.Records[i], ref.Records[i])
			}
		}
		if got.Counts != ref.Counts || got.AVF() != ref.AVF() {
			t.Fatalf("workers=%d counts diverged: %+v vs %+v", workers, got.Counts, ref.Counts)
		}
		if got.Forking.Forks > uint64(workers) {
			t.Fatalf("workers=%d: %d forks, want at most one per worker", workers, got.Forking.Forks)
		}
		if got.Forking.Forks+got.Forking.ReuseHits != 40 {
			t.Fatalf("workers=%d: forks+reuses = %d, want 40", workers, got.Forking.Forks+got.Forking.ReuseHits)
		}
	}
}

// TestAccelInPlaceTaskMatchesRebuildReference: an in-place task writes its
// output over its own input buffer in host memory, so a reused fork that
// did not roll host memory back would read the previous run's output as
// input. Every Table IV task keeps separate output buffers, which leaves
// host-memory rollback unexercised by the machsuite-wide suite.
func TestAccelInPlaceTaskMatchesRebuildReference(t *testing.T) {
	d := testDesign(t, DefaultFUs())
	d.Out = []Xfer{{Arg: 0, Local: 0x1000, Len: 128}}
	task := testTask()
	task.Bufs, task.OutArg = task.Bufs[:1], 0
	cfg := CampaignConfig{
		Design: d, Task: task, Target: "IN",
		Model: core.Transient, Faults: 24, Seed: 12,
	}
	ref, err := RebuildReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		got, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Records {
			if got.Records[i] != ref.Records[i] {
				t.Fatalf("workers=%d record %d: %+v vs %+v", workers, i, got.Records[i], ref.Records[i])
			}
		}
		if got.Counts != ref.Counts || got.Forking.ReuseHits == 0 || got.Forking.PagesCopied == 0 {
			t.Fatalf("workers=%d: counts %+v vs %+v, forking %+v", workers, got.Counts, ref.Counts, got.Forking)
		}
	}
}

// TestAccelCampaignRejectsBadConfig: unknown components and non-positive
// sample sizes abort the campaign instead of producing fake verdicts.
func TestAccelCampaignRejectsBadConfig(t *testing.T) {
	d := testDesign(t, DefaultFUs())
	if _, err := RunCampaign(CampaignConfig{
		Design: d, Task: testTask(), Target: "NOPE",
		Model: core.Transient, Faults: 4, Seed: 1,
	}); err == nil {
		t.Fatal("unknown component must abort the campaign")
	}
	if _, err := RunCampaign(CampaignConfig{
		Design: d, Task: testTask(), Target: "IN",
		Model: core.Transient, Faults: 0, Seed: 1,
	}); err == nil {
		t.Fatal("zero-fault campaign must be rejected")
	}
}
