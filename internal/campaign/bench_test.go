package campaign_test

import (
	"fmt"
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/sweep"
)

// BenchmarkCampaignLadder gates the checkpoint ladder on a deterministic
// count: simulated cycles per fault on riscv/qsort prf (Table II, 200
// valid-only faults). The dispatched campaign simulates each fault's
// replay from its checkpoint plus the post-injection cycles it actually
// steps (a converged run stops at the checkpoint where its state rejoins
// the golden run); the cold-start reference simulates every fault from
// cycle 0 to the end. Both must give the same digest, and the dispatched
// count must be at least 2x below the reference's — the guard the verify
// script runs in CI. (This cell measures 2.26x: about half its masked
// runs never converge, because the flipped value sits in an architectural
// register the program never reads again, and an exact state comparison
// cannot prove that dead.)
func BenchmarkCampaignLadder(b *testing.B) {
	cfg := campaign.Config{
		Image:   compileWorkload(b, "riscv", "qsort"),
		Preset:  config.TableII(),
		Target:  "prf",
		Model:   core.Transient,
		Faults:  200,
		Seed:    3,
		Domain:  core.DomainValidOnly,
		Workers: 2,
	}
	var ref, res *campaign.Result
	var err error
	b.Run("cold-start-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ref, err = campaign.ColdStartReference(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ladder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, err = campaign.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, want := sweep.DigestCPURecords(res.Records), sweep.DigestCPURecords(ref.Records); got != want {
		b.Fatalf("ladder digest %s != cold-start reference digest %s", got, want)
	}
	// The reference steps every run from cycle 0 to its verdict's cycle.
	var refCycles, post uint64
	for i, r := range ref.Records {
		refCycles += r.Verdict.Cycles
		if first := r.Mask.Faults[0].Cycle; res.Records[i].Verdict.Cycles > first {
			post += res.Records[i].Verdict.Cycles - first
		}
	}
	ladCycles := res.Forking.ReplayedCycles + post - res.Forking.ConvergedCycles
	n := float64(len(res.Records))
	ratio := float64(refCycles) / float64(ladCycles)
	fmt.Printf("\nLadder: %.0f simulated cycles per fault (%.0f replayed, %d of %d runs converged) vs %.0f cold-start reference, %.2fx fewer\n",
		float64(ladCycles)/n, float64(res.Forking.ReplayedCycles)/n, res.Forking.Converged, len(res.Records), float64(refCycles)/n, ratio)
	if ratio < 2 {
		b.Fatalf("ladder simulated %d cycles vs %d cold-start reference — want at least a 2x reduction", ladCycles, refCycles)
	}
}
