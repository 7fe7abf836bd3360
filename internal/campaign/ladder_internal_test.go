package campaign

// White-box tests for the checkpoint ladder: delta-checkpoint placement
// inside the injection window and their agreement with the golden run,
// rung selection per mask, and a run forked from a mid-window checkpoint
// applying a rung-straddling multi-fault mask in cycle order,
// bit-identically to a window-start fork.

import (
	"testing"

	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/isa"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/workloads"
)

func prepareTestGolden(t *testing.T) (*Golden, Config) {
	t.Helper()
	a, err := isa.ByName("riscv")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Image:          img,
		Preset:         config.Fast(),
		Target:         "prf",
		Model:          core.Transient,
		Faults:         1,
		Seed:           1,
		WatchdogFactor: 3,
	}
	g, err := PrepareGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, cfg
}

func TestLadderRungPlacement(t *testing.T) {
	g, _ := prepareTestGolden(t)
	rungs := g.rungs
	if len(rungs) != goldenCheckpoints+1 {
		t.Fatalf("golden prep recorded %d checkpoints over window [%d, %d), want %d",
			len(rungs)-1, g.Info.WindowLo, g.Info.WindowHi, goldenCheckpoints)
	}
	if rungs[0].delta != nil || rungs[0].cycle != g.base.CPU.Cycle() || rungs[0].cycle != g.Info.WindowLo {
		t.Fatalf("rung 0 must be the window-start base: cycle %d, base at %d, window from %d",
			rungs[0].cycle, g.base.CPU.Cycle(), g.Info.WindowLo)
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].cycle <= rungs[i-1].cycle {
			t.Errorf("rung cycles not strictly increasing: rung %d at %d, rung %d at %d",
				i-1, rungs[i-1].cycle, i, rungs[i].cycle)
		}
		if rungs[i].commits < rungs[i-1].commits {
			t.Errorf("rung commits not monotone: rung %d has %d, rung %d has %d",
				i-1, rungs[i-1].commits, i, rungs[i].commits)
		}
		if rungs[i].cycle >= g.Info.WindowHi {
			t.Errorf("rung %d at cycle %d outside window (hi %d)", i, rungs[i].cycle, g.Info.WindowHi)
		}
		if rungs[i].delta.Cycle() != rungs[i].cycle {
			t.Errorf("rung %d records cycle %d but its checkpoint sits at %d",
				i, rungs[i].cycle, rungs[i].delta.Cycle())
		}
	}
	// Every checkpoint is exactly the state the golden run reaches: a
	// window-start fork stepped there matches it, a fork made at it
	// matches it, and a fork made at one checkpoint and stepped to the
	// next matches the next.
	walker := g.base.Fork()
	for i, r := range rungs[1:] {
		walker.RunUntilCycle(r.cycle)
		if !walker.MatchesDelta(r.delta) {
			t.Errorf("window-start fork at cycle %d does not match checkpoint %d", r.cycle, i+1)
		}
		at := g.base.ForkAt(r.delta)
		if !at.MatchesDelta(r.delta) {
			t.Errorf("fork made at checkpoint %d does not match it", i+1)
		}
		if i+2 < len(rungs) {
			next := rungs[i+2]
			at.RunUntilCycle(next.cycle)
			if !at.MatchesDelta(next.delta) {
				t.Errorf("fork made at checkpoint %d and stepped to %d does not match checkpoint %d", i+1, next.cycle, i+2)
			}
			if at.MatchesDelta(r.delta) {
				t.Errorf("checkpoint %d matches a system %d cycles past it", i+1, next.cycle-r.cycle)
			}
		}
	}
}

func TestLadderRungForSelection(t *testing.T) {
	rungs := []rung{{cycle: 100}, {cycle: 200}, {cycle: 300}, {cycle: 400}}
	cases := []struct {
		name string
		mask core.Mask
		want int
	}{
		{"before first rung", core.Mask{Faults: []core.Fault{{Model: core.Transient, Cycle: 150}}}, 0},
		{"exactly at rung", core.Mask{Faults: []core.Fault{{Model: core.Transient, Cycle: 300}}}, 2},
		{"past last rung", core.Mask{Faults: []core.Fault{{Model: core.Transient, Cycle: 900}}}, 3},
		{"earliest of several governs", core.Mask{Faults: []core.Fault{
			{Model: core.Transient, Cycle: 390},
			{Model: core.Transient, Cycle: 250},
		}}, 1},
		{"permanent pins rung 0", core.Mask{Faults: []core.Fault{
			{Model: core.StuckAt1},
			{Model: core.Transient, Cycle: 390},
		}}, 0},
	}
	for _, c := range cases {
		if got := rungFor(rungs, c.mask); got != c.want {
			t.Errorf("%s: rungFor = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLadderStraddlingMaskAppliesInCycleOrder(t *testing.T) {
	// A mask with two transients on opposite sides of a rung boundary:
	// the run forks from the rung before the FIRST fault, replays to it,
	// flips, keeps running across later rungs' cycles, and flips again.
	// Verdict and flip narration must match the window-start fork exactly.
	g, cfg := prepareTestGolden(t)
	rungs := g.rungs
	if len(rungs) < 3 {
		t.Skipf("window too short for a straddle: %d rungs", len(rungs))
	}
	r := 1
	mask := core.Mask{ID: 0, Faults: []core.Fault{
		// Listed out of cycle order on purpose: runOne must sort.
		{Target: "prf", Bit: 7, Model: core.Transient, Cycle: rungs[r+1].cycle + 1},
		{Target: "prf", Bit: 3, Model: core.Transient, Cycle: rungs[r].cycle + 1},
	}}
	if got := rungFor(rungs, mask); got != r {
		t.Fatalf("straddling mask selected rung %d, want %d", got, r)
	}
	armCycle := rungs[0].cycle

	flatSink := &eventSliceSink{}
	flatCfg := cfg
	flatCfg.Trace = flatSink
	vFlat, _, err := runOne(flatCfg, g.base.Fork(), &g.Info, nil, 0, armCycle, mask, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	ladSink := &eventSliceSink{}
	ladCfg := cfg
	ladCfg.Trace = ladSink
	vLad, _, err := runOne(ladCfg, g.base.ForkAt(rungs[r].delta), &g.Info, nil, 0, armCycle, mask, rungs[r+1:], nil)
	if err != nil {
		t.Fatal(err)
	}

	if vFlat != vLad {
		t.Fatalf("straddling mask verdict differs:\n window-start: %+v\n rung %d:      %+v", vFlat, r, vLad)
	}
	flatFlips := flipsOf(flatSink.events)
	ladFlips := flipsOf(ladSink.events)
	if len(flatFlips) != 2 || len(ladFlips) != 2 {
		t.Fatalf("expected 2 flips each, got %d (flat) and %d (rung)", len(flatFlips), len(ladFlips))
	}
	for i := range flatFlips {
		if flatFlips[i] != ladFlips[i] {
			t.Errorf("flip %d differs:\n window-start: %+v\n rung:         %+v", i, flatFlips[i], ladFlips[i])
		}
	}
	if flatFlips[0].Cycle > flatFlips[1].Cycle {
		t.Errorf("flips applied out of cycle order: %d then %d", flatFlips[0].Cycle, flatFlips[1].Cycle)
	}
	if flatFlips[0].Bit != 3 || flatFlips[1].Bit != 7 {
		t.Errorf("flip order ignored injection cycles: bits %d, %d (want 3 then 7)",
			flatFlips[0].Bit, flatFlips[1].Bit)
	}
}

type eventSliceSink struct{ events []obs.Event }

func (s *eventSliceSink) Emit(e obs.Event) { s.events = append(s.events, e) }

func flipsOf(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindBitFlipped {
			out = append(out, e)
		}
	}
	return out
}
