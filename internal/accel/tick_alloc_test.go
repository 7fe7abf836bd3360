package accel_test

import (
	"runtime"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/machsuite"
)

// warmFork returns a fork of spec's pristine harness that has already run
// the golden task once, so every scratch buffer it reuses has grown.
func warmFork(tb testing.TB, spec machsuite.Spec) *accel.Standalone {
	tb.Helper()
	base, err := accel.NewStandalone(spec.Design, spec.Task)
	if err != nil {
		tb.Fatal(err)
	}
	f := base.Fork()
	if err := f.Run(50_000_000); err != nil {
		tb.Fatalf("%s golden: %v", spec.Name, err)
	}
	return f
}

// TestAccelTickZeroAlloc: on a warm fork, a whole faulty task — Reset,
// ScheduleFlip, Start and every Tick to completion — allocates nothing.
func TestAccelTickZeroAlloc(t *testing.T) {
	for _, spec := range machsuite.All() {
		t.Run(spec.Name, func(t *testing.T) {
			f := warmFork(t, spec)
			end := f.Cluster.Cycle()
			allocs := testing.AllocsPerRun(3, func() {
				f.Reset()
				f.Cluster.ScheduleFlip(0, 1, end/2)
				f.Cluster.Start()
				for !f.Cluster.Done() && f.Cluster.Cycle() < 2*end {
					f.Cluster.Tick()
				}
			})
			if !f.Cluster.Done() || f.Cluster.Faulted() != nil {
				t.Fatalf("flipped run did not complete cleanly: done %v, fault %v", f.Cluster.Done(), f.Cluster.Faulted())
			}
			if allocs != 0 {
				t.Errorf("%v allocations per faulty task, want 0", allocs)
			}
		})
	}
}

// BenchmarkAccelTick is the accelerator's L0 cycle-kernel benchmark: each
// design's golden task, from Reset to completion, on a warm fork. It
// reports simulated cycles per second and allocations per cycle.
func BenchmarkAccelTick(b *testing.B) {
	for _, spec := range machsuite.All() {
		b.Run(spec.Name, func(b *testing.B) {
			f := warmFork(b, spec)
			var cycles uint64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				f.Reset()
				f.Cluster.Start()
				for !f.Cluster.Done() {
					f.Cluster.Tick()
				}
				cycles += f.Cluster.Cycle()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(cycles), "allocs/cycle")
		})
	}
}
