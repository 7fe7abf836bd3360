package main

// endToEnd are the metrics an untraced run prints, with their units.
// BENCHMARK.json lists the same names.
var endToEnd = [][2]string{
	{"sim_cycles_per_s", "cycles/s"},
	{"ops_per_s", "ops/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, with their units. Every
// traced run prints all of them; a layer the workload does not exercise
// reads 0. BENCHMARK.json lists the same names.
var perLayer = [][2]string{
	{"program.compile_s", "s"},
	{"soc.sim_cycles_per_s.arm", "cycles/s"},
	{"soc.sim_cycles_per_s.x86", "cycles/s"},
	{"soc.sim_cycles_per_s.riscv", "cycles/s"},
	{"soc.allocs_per_cycle", "allocs/cycle"},
	{"soc.alloc_bytes_per_cycle", "B/cycle"},
	{"soc.new_s", "s"},
	{"soc.golden_cycles", "cycles"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"campaign.golden_s", "s"},
	{"campaign.ladder_s", "s"},
	{"campaign.fork_s", "s"},
	{"campaign.reset_s", "s"},
	{"campaign.replay_s", "s"},
	{"campaign.faulty_s", "s"},
	{"campaign.classify_s", "s"},
	{"campaign.replayed_cycles_per_fault", "cycles"},
	{"campaign.post_injection_cycles_per_fault", "cycles"},
	{"campaign.early_stop_frac", "ratio"},
	{"campaign.pages_copied_per_fault", "pages"},
	{"campaign.sets_restored_per_fault", "sets"},
	{"campaign.forks_per_fault", "forks"},
	{"campaign.worker_busy_frac", "ratio"},
	{"campaign.faults_per_s_1w", "faults/s"},
	{"campaign.scaling_eff", "ratio"},
	{"campaign.allocs_per_fault", "allocs"},
	{"accel.sim_cycles_per_s", "cycles/s"},
	{"accel.golden_s", "s"},
	{"accel.ladder_s", "s"},
	{"accel.fork_s", "s"},
	{"accel.reset_s", "s"},
	{"accel.replay_s", "s"},
	{"accel.faulty_s", "s"},
	{"accel.classify_s", "s"},
	{"accel.replayed_cycles_per_fault", "cycles"},
	{"accel.pages_copied_per_fault", "pages"},
	{"accel.worker_busy_frac", "ratio"},
	{"accel.allocs_per_fault", "allocs"},
	{"sweep.golden_builds", "count"},
	{"sweep.golden_hits", "count"},
	{"sweep.golden_s", "s"},
	{"sweep.golden_share", "ratio"},
	{"sweep.cell_ms.p50", "ms"},
	{"sweep.cell_ms.p90", "ms"},
	{"sweep.journal_s", "s"},
	{"sweep.worker_busy_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// fillLayerDefaults gives every per-layer metric the workload did not
// measure the value 0.
func fillLayerDefaults(b *bench) {
	for _, m := range perLayer {
		if _, ok := b.metrics[m[0]]; !ok {
			b.set(m[0], m[1], 0)
		}
	}
}
