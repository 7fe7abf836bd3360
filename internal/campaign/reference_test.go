package campaign

import (
	"strings"

	"marvel/internal/core"
	"marvel/internal/soc"
)

// ColdStartReference is the test-only oracle the dispatched campaign is
// checked against. It runs cfg's fixed mask budget serially, runs every
// fault to the end (it passes runOne no checkpoints, so nothing
// converges), and shares no Fork, Reset, delta-checkpoint, convergence or
// worker-pool code with RunWithGolden:
//
//   - a purely transient mask runs on a freshly built system (soc.New)
//     simulated from cycle 0, compared against the full golden commit
//     trace;
//   - a mask carrying a stuck-at fault runs on a deep Clone of the
//     window-start checkpoint. That checkpoint is snapshotted mid-cycle,
//     from the checkpoint directive's hook, and the stuck-at bits must
//     hold from exactly there; a cold start could only stick them at the
//     end of that cycle, which changes some IQ verdicts.
//
// Workers and the adaptive knobs are ignored; Forking.Forks
// counts the systems built.
func ColdStartReference(cfg Config) (*Result, error) {
	g, err := PrepareGolden(cfg)
	if err != nil {
		return nil, err
	}
	masks, bits, err := buildMasks(cfg, g.base, &g.Info)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Target:     cfg.Target,
		Model:      cfg.Model,
		Golden:     g.Info,
		TargetBits: bits,
		Records:    make([]Record, len(masks)),
	}
	if len(cfg.MultiTargets) > 0 {
		res.Target = strings.Join(cfg.MultiTargets, "+")
	}
	res.Z = 1.96
	if cfg.Confidence > 0 {
		res.Z = cfg.Confidence
	}
	armCycle, commitsAtCkpt := g.rungs[0].cycle, g.rungs[0].commits
	for i, m := range masks {
		var s *soc.System
		goldenTrace, commitOffset := g.trace.Slice(commitsAtCkpt), 0
		if _, transient := firstTransientCycle(m); transient {
			if s, err = soc.New(cfg.Image, cfg.Preset.CPU, cfg.Preset.Hier, cfg.Preset.MemLatency); err != nil {
				return nil, err
			}
			goldenTrace, commitOffset = g.trace, -commitsAtCkpt
		} else {
			s = g.base.Clone()
		}
		v, _, err := runOne(cfg, s, &g.Info, goldenTrace, commitOffset, armCycle, m, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Records[i] = Record{Mask: m, Verdict: v}
		res.Counts.Add(v)
		if cfg.HVF {
			res.Counts.AddHVF(v)
		}
		res.Forking.Forks++
	}
	res.Requested, res.Batches = len(masks), 1
	res.Margin = core.MarginFor(bits, len(masks), res.Z)
	return res, nil
}
