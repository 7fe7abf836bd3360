package campaign

import (
	"fmt"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/obs"
)

// Explanation is the result of re-running one campaign fault with full
// tracing armed: the re-derived mask, its verdict (bit-identical to the
// campaign's record for the same index), and the retained fault-lifecycle
// events.
type Explanation struct {
	Index      int
	Mask       core.Mask
	Verdict    classify.Verdict
	Golden     GoldenInfo
	TargetBits uint64
	Events     []obs.Event
}

// Explain deterministically re-runs campaign fault (cfg.Seed, index) with
// tracing on and HVF divergence analysis enabled. Mask generation is
// prefix-stable in the fault count (see buildMasks), so the mask — and
// therefore the verdict — is exactly what a campaign over any Faults >
// index would record at that index. cfg.Trace, Workers, Faults and
// OnVerdict are ignored; tracing only observes, it never changes the
// verdict.
func Explain(cfg Config, index int) (*Explanation, error) {
	g, err := PrepareGolden(cfg)
	if err != nil {
		return nil, err
	}
	return ExplainWithGolden(cfg, g, index)
}

// ExplainWithGolden is Explain against an already-prepared golden
// reference.
func ExplainWithGolden(cfg Config, g *Golden, index int) (*Explanation, error) {
	if index < 0 {
		return nil, fmt.Errorf("campaign: explain: index must be non-negative, got %d", index)
	}
	// Re-derive exactly the campaign's mask at this index: generation is a
	// pure function of (Seed, index, geometry), so a prefix of index+1
	// masks reproduces it bit for bit.
	cfg.Faults = index + 1
	masks, bits, err := buildMasks(cfg, g.base, &g.Info)
	if err != nil {
		return nil, err
	}
	mask := masks[index]

	sink := obs.NewRingSink(512)
	cfg.Trace = sink
	// Divergence narration needs the commit-trace comparator even if the
	// original campaign ran AVF-only; the HVF view is an overlay on the
	// same run and does not perturb the AVF verdict.
	cfg.HVF = true
	e := newEngine(cfg, g, masks)
	r := e.Rung(index)
	v, err := e.Run(e.Fork(r), index, r, nil)
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Index:      index,
		Mask:       mask,
		Verdict:    v,
		Golden:     g.Info,
		TargetBits: bits,
		Events:     sink.Events(),
	}, nil
}
