package accel

import "marvel/internal/core"

// RebuildReference is the test-only oracle the dispatched accelerator
// campaign is checked against. It runs cfg's fixed fault budget serially
// on a freshly built harness (NewStandalone) per fault, so it shares no
// Fork, Reset, ladder or worker-pool code with RunCampaign. Workers,
// LadderRungs and the adaptive knobs are ignored; Forking.Forks counts
// the rebuilds.
func RebuildReference(cfg CampaignConfig) (*CampaignResult, error) {
	g, err := PrepareGolden(cfg.Design, cfg.Task)
	if err != nil {
		return nil, err
	}
	e, err := newCampaignEngine(cfg, g)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{
		Target:       cfg.Target,
		GoldenCycles: g.Cycles,
		GoldenOutput: g.Output,
		TargetBits:   e.bits,
		Records:      make([]Record, cfg.Faults),
	}
	res.Z = 1.96
	if cfg.Confidence > 0 {
		res.Z = cfg.Confidence
	}
	for i := range res.Records {
		s, err := NewStandalone(cfg.Design, cfg.Task)
		if err != nil {
			return nil, err
		}
		f := e.fault(i)
		v := runFaulty(s, e.bankIdx, f, e.budget, g.Output, nil, nil, int64(i))
		res.Records[i] = Record{Fault: f, Verdict: v}
		res.Counts.Add(v)
		res.Forking.Forks++
	}
	res.Requested, res.Batches = cfg.Faults, 1
	res.Margin = core.MarginFor(e.bits, cfg.Faults, res.Z)
	return res, nil
}
