package accel

import (
	"fmt"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/obs"
)

// Explanation is the result of re-running one accelerator campaign fault
// with full tracing armed: the derived fault, its verdict (bit-identical
// to the campaign's record for the same index), and the retained
// fault-lifecycle events.
type Explanation struct {
	Index        int
	Fault        core.Fault
	Verdict      classify.Verdict
	GoldenCycles uint64
	TargetBits   uint64
	Window       uint64
	Events       []obs.Event
}

// Explain deterministically re-runs campaign fault (cfg.Seed, index) with
// tracing on. Accelerator masks derive purely from (seed, index) via
// core.DeriveFault, so the re-run reproduces the campaign verdict exactly;
// tracing only observes. cfg.Trace, Workers, Faults and OnVerdict are
// ignored.
func Explain(cfg CampaignConfig, index int) (*Explanation, error) {
	if index < 0 {
		return nil, fmt.Errorf("accel: explain: index must be non-negative, got %d", index)
	}
	g, err := PrepareGolden(cfg.Design, cfg.Task)
	if err != nil {
		return nil, err
	}
	return ExplainWithGolden(cfg, g, index)
}

// ExplainWithGolden is Explain against an already-prepared golden
// reference.
func ExplainWithGolden(cfg CampaignConfig, g *CampaignGolden, index int) (*Explanation, error) {
	e, err := newCampaignEngine(cfg, g)
	if err != nil {
		return nil, err
	}
	f := e.fault(index)
	sink := obs.NewRingSink(512)
	v := runFaulty(g.base.Fork(), e.bankIdx, f, e.budget, g.Output, sink, nil, 0)
	return &Explanation{
		Index:        index,
		Fault:        f,
		Verdict:      v,
		GoldenCycles: g.Cycles,
		TargetBits:   e.bits,
		Window:       e.window,
		Events:       sink.Events(),
	}, nil
}
