package obs

import (
	"fmt"
	"strings"
)

// Narrative turns a retained event stream (one faulty run, emission order)
// into a human-readable propagation story: a cycle-stamped timeline of the
// salient events, aggregate lines for the chatty kinds (squashes,
// store-forwards), and a concluding sentence explaining why the fault
// masked or where it first escaped to architectural state.
func Narrative(events []Event) []string {
	var out []string
	var squashes, squashedUops, forwards uint64
	var sawFlip, sawStuck, sawRead, sawOverwrite, sawInvalid bool
	var sawDiverge, sawWatchdog, sawConverge bool
	var converged Event
	var divergeCommit int
	var verdict Event
	var haveVerdict bool

	for _, e := range events {
		switch e.Kind {
		case KindSquash:
			squashes++
			squashedUops += e.N
			continue
		case KindStoreForward:
			forwards++
			continue
		case KindBitFlipped:
			sawFlip = true
		case KindStuckApplied:
			sawStuck = true
		case KindCorruptRead:
			sawRead = true
		case KindOverwriteMasked:
			sawOverwrite = true
		case KindInvalidMasked:
			sawInvalid = true
		case KindDiverged:
			sawDiverge = true
			divergeCommit = e.Commit
		case KindWatchdog:
			sawWatchdog = true
		case KindConverged:
			sawConverge = true
			converged = e
		case KindVerdict:
			verdict = e
			haveVerdict = true
		}
		out = append(out, e.String())
	}

	if squashes > 0 {
		out = append(out, fmt.Sprintf("  (plus %d pipeline squash(es) discarding %d in-flight micro-op(s) after injection)", squashes, squashedUops))
	}
	if forwards > 0 {
		out = append(out, fmt.Sprintf("  (plus %d store-to-load forward(s) after injection)", forwards))
	}

	// Concluding "why" sentence, most specific mechanism first.
	var why string
	switch {
	case sawInvalid:
		why = "the fault landed in a dead or invalid entry and could never be consumed — masked without simulation (early termination)."
	case sawOverwrite:
		why = "the corrupted bit was overwritten or freed before any read consumed it — provably masked."
	case sawWatchdog:
		why = "the run exceeded its watchdog cycle budget — the fault wedged the machine into a hang (classified Crash)."
	case sawDiverge:
		why = fmt.Sprintf("the fault escaped to architectural state: the commit stream first diverged from the golden trace at commit #%d.", divergeCommit)
	case sawConverge:
		why = fmt.Sprintf("the run's whole state rejoined the golden run at cycle %d, so the rest of it is the golden run — masked, with %d golden cycles left unsimulated.", converged.Cycle, converged.N)
	case haveVerdict && strings.EqualFold(verdict.Detail, "masked") && sawRead:
		why = "the corrupted value was consumed, but its effect never reached architectural outputs — logically masked downstream."
	case haveVerdict && strings.EqualFold(verdict.Detail, "masked") && (sawFlip || sawStuck):
		why = "the corrupted bit was never consumed before the run completed — masked."
	case haveVerdict && strings.EqualFold(verdict.Detail, "crash"):
		why = "the fault drove the machine into a trap or fault condition (classified Crash)."
	case haveVerdict && strings.EqualFold(verdict.Detail, "sdc"):
		why = "the program completed but produced wrong outputs — silent data corruption."
	}
	if why != "" {
		out = append(out, "why: "+why)
	}
	return out
}
