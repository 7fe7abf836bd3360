package sweep_test

// Ladder dispatch through the sweep orchestrator. The sweep's LadderRungs
// reaches accelerator cells only — CPU cells always fork from their
// golden's delta checkpoints — so a grid run with accelerator rungs must
// produce bit-identical per-cell digests to the single-checkpoint grid
// (CPU and accelerator cells alike), the rung counters must surface in
// Result.Counters, CPU cells must report the same checkpoint counters at
// every ladder depth, and — because LadderRungs is deliberately excluded
// from the resume manifest's grid identity — a journal written at one
// ladder depth must resume cleanly at another. CPU cells are checked
// against the fork-free cold-start reference in internal/campaign
// (TestLadderSweepCellsMatchColdStartReference).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marvel/internal/sweep"
)

func ladderSpec(dir string, rungs int) sweep.Spec {
	return sweep.Spec{
		ISAs:        []string{"riscv"},
		Workloads:   []string{"crc32", "sha"},
		Targets:     []string{"prf", "prf+rob"},
		Designs:     []string{"gemm"},
		Models:      []string{"transient"},
		Faults:      8,
		Seed:        19,
		Preset:      "fast",
		OutDir:      dir,
		LadderRungs: rungs,
	}
}

func TestSweepLadderDifferential(t *testing.T) {
	flat, err := sweep.Run(ladderSpec("", 0))
	if err != nil {
		t.Fatal(err)
	}
	laddered, err := sweep.Run(ladderSpec("", 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Cells) != len(laddered.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(flat.Cells), len(laddered.Cells))
	}
	for i := range flat.Cells {
		f, l := flat.Cells[i], laddered.Cells[i]
		if f.Key != l.Key {
			t.Fatalf("cell order differs at %d: %s vs %s", i, f.Key, l.Key)
		}
		if f.Digest != l.Digest {
			t.Errorf("%s: ladder digest %s != flat digest %s", f.Key, l.Digest, f.Digest)
		}
		if f.Masked != l.Masked || f.SDC != l.SDC || f.Crash != l.Crash {
			t.Errorf("%s: verdict counts diverge under the ladder", f.Key)
		}
	}
	if laddered.Counters.RungHits <= flat.Counters.RungHits {
		t.Errorf("accelerator rungs added no rung hits: %d laddered vs %d flat",
			laddered.Counters.RungHits, flat.Counters.RungHits)
	}
	if laddered.Counters.ReplayedCycles >= flat.Counters.ReplayedCycles {
		t.Errorf("ladder replayed %d pre-injection cycles, flat %d — the ladder should replay less",
			laddered.Counters.ReplayedCycles, flat.Counters.ReplayedCycles)
	}

	// CPU cells ignore the sweep's ladder depth: their checkpoint counters
	// are the same at every depth, and they do fork from checkpoints.
	cpuOnly := func(rungs int) sweep.Counters {
		spec := ladderSpec("", rungs)
		spec.Designs = nil
		res, err := sweep.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	c0, c6 := cpuOnly(0), cpuOnly(6)
	if c0.RungHits == 0 {
		t.Error("CPU cells never forked from a delta checkpoint")
	}
	if c0.RungHits != c6.RungHits || c0.ReplayedCycles != c6.ReplayedCycles {
		t.Errorf("CPU cells' checkpoint counters depend on the sweep's ladder depth: %d/%d hits, %d/%d replayed",
			c0.RungHits, c6.RungHits, c0.ReplayedCycles, c6.ReplayedCycles)
	}
}

func TestSweepLadderResumeAcrossDepths(t *testing.T) {
	dir := t.TempDir()
	first, err := sweep.Run(ladderSpec(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	total := len(first.Cells)

	// Truncate the journal to simulate a kill partway through.
	jPath := filepath.Join(dir, "cells.jsonl")
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	const keep = 2
	if len(lines) <= keep {
		t.Fatalf("journal has only %d lines", len(lines))
	}
	if err := os.WriteFile(jPath, []byte(strings.Join(lines[:keep], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume at a different ladder depth: the manifest identifies the grid
	// by what changes results — the ladder doesn't — so this must succeed
	// and reproduce the uninterrupted run bit-for-bit.
	resumed, err := sweep.Run(ladderSpec(dir, 8))
	if err != nil {
		t.Fatalf("resume at a different ladder depth rejected: %v", err)
	}
	if resumed.Counters.CellsSkipped != keep {
		t.Errorf("skipped %d cells, want %d", resumed.Counters.CellsSkipped, keep)
	}
	if resumed.Counters.CellsExecuted != total-keep {
		t.Errorf("re-executed %d cells, want %d", resumed.Counters.CellsExecuted, total-keep)
	}
	for i := range first.Cells {
		if first.Cells[i].Digest != resumed.Cells[i].Digest {
			t.Errorf("cell %s digest changed when resumed under a ladder", first.Cells[i].Key)
		}
	}
}
