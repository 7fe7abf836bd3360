package soc_test

import (
	"testing"

	"marvel/internal/config"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/workloads"
)

// TestStepZeroAlloc pins the cycle kernel's allocation budget: once the
// pipeline is warm, a System.Step allocates nothing on any ISA. Decode
// writes into per-core storage, the fetch queue and fetch buffer reuse
// their backing arrays, and loads and stores stage bytes in the core.
// The check is repeated on a fork rolled back with Reset (cpu.ResetTo
// from the frozen golden core), whose reused storage must survive the
// reset; its first run already covered the measured cycles, so the
// copy-on-write pages they write are materialized.
func TestStepZeroAlloc(t *testing.T) {
	const warm, steps = 5000, 1000
	spec, err := workloads.ByName("smooth")
	if err != nil {
		t.Fatal(err)
	}
	pre := config.TableII()
	for _, a := range isa.All() {
		t.Run(a.Name(), func(t *testing.T) {
			img, err := program.Compile(a, spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunUntilCycle(warm)
			golden := sys.Clone()
			assertStepZeroAlloc(t, "fresh", sys, steps)

			fork := golden.Fork()
			fork.RunUntilCycle(warm + 3*steps)
			fork.Reset()
			if got := fork.CPU.Cycle(); got != warm {
				t.Fatalf("reset fork at cycle %d, want %d", got, warm)
			}
			assertStepZeroAlloc(t, "after ResetTo", fork, steps)
		})
	}
}

func assertStepZeroAlloc(t *testing.T, what string, sys *soc.System, steps int) {
	t.Helper()
	if sys.CPU.Done() {
		t.Fatalf("%s: program ended at cycle %d, before the measured steps", what, sys.CPU.Cycle())
	}
	allocs := testing.AllocsPerRun(steps, sys.Step)
	if sys.CPU.Done() {
		t.Fatalf("%s: program ended at cycle %d, inside the measured steps", what, sys.CPU.Cycle())
	}
	if allocs != 0 {
		t.Errorf("%s: %v allocations per Step, want 0", what, allocs)
	}
}
