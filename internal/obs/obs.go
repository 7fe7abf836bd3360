// Package obs is the observability layer shared by the CPU and
// accelerator fault-injection engines: typed fault-lifecycle events with
// pluggable sinks (the substrate of `marvel explain`), and a lock-free
// campaign metrics registry exposed over expvar and an optional debug
// HTTP endpoint.
//
// obs is a leaf package — it imports only the standard library — so every
// engine (internal/cpu, internal/accel, internal/campaign, internal/sweep)
// can emit into it without import cycles. Tracing is strictly
// zero-cost-when-off: every emission site in an engine hot path is guarded
// by a single nil check on the Tracer, and the golden (untraced) path
// performs no allocation and no call.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind identifies one fault-lifecycle event type. The taxonomy follows a
// fault from arming to classification: it is armed at the checkpoint,
// flipped (or stuck) into a structure, possibly consumed (first corrupted
// read), possibly killed (overwrite, squash, invalid entry), possibly
// escapes to architectural state (first commit-stream divergence), and is
// finally classified.
type Kind uint8

const (
	// KindFaultArmed: the campaign scheduled a fault for this run.
	KindFaultArmed Kind = iota
	// KindStuckApplied: a permanent stuck-at fault was applied at the
	// fork point; it holds for the whole run.
	KindStuckApplied
	// KindBitFlipped: a transient fault's bit was inverted in the target
	// structure at its injection cycle.
	KindBitFlipped
	// KindCorruptRead: the corrupted bit was consumed for the first time
	// (watch transition Pending -> Read); the fault may now propagate.
	KindCorruptRead
	// KindOverwriteMasked: the corrupted bit was overwritten, freed or
	// invalidated before any read — provably masked.
	KindOverwriteMasked
	// KindInvalidMasked: the fault landed in a dead or invalid entry and
	// is masked without running the simulation (§IV-B early termination).
	KindInvalidMasked
	// KindSquash: a pipeline squash discarded in-flight wrong-path work
	// after the injection (a masking mechanism for faults on wrong-path
	// micro-ops).
	KindSquash
	// KindStoreForward: a store-to-load forward propagated a value through
	// the LSQ after the injection (a propagation channel for corrupted
	// store data).
	KindStoreForward
	// KindPhase: an accelerator task phase transition (dma-in, compute,
	// dma-out, done).
	KindPhase
	// KindDiverged: the faulty commit stream first departed from the
	// golden trace — the fault became architecturally visible.
	KindDiverged
	// KindWatchdog: the watchdog cycle budget expired; the run is
	// classified as a crash (hang).
	KindWatchdog
	// KindVerdict: the run was classified; Detail carries the outcome.
	KindVerdict
	// KindConverged: the faulty run's whole state equalled a golden
	// checkpoint, so its future is the golden run's and it ended there;
	// N carries the golden cycles not simulated.
	KindConverged
)

var kindNames = [...]string{
	KindFaultArmed:      "fault-armed",
	KindStuckApplied:    "stuck-applied",
	KindBitFlipped:      "bit-flipped",
	KindCorruptRead:     "first-corrupt-read",
	KindOverwriteMasked: "overwrite-masked",
	KindInvalidMasked:   "invalid-entry-masked",
	KindSquash:          "squash",
	KindStoreForward:    "store-forward",
	KindPhase:           "phase",
	KindDiverged:        "divergence",
	KindWatchdog:        "watchdog",
	KindVerdict:         "verdict",
	KindConverged:       "converged",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fault-lifecycle observation. Events are plain values —
// emitting one allocates nothing — and sinks receive them in engine
// emission order (cycle-monotonic within one run).
type Event struct {
	// Cycle is the engine cycle at which the event fired (CPU cycle for
	// CPU campaigns, cluster-local cycle for accelerator campaigns).
	Cycle uint64
	Kind  Kind
	// Target is the structure the event refers to ("prf", "l1d",
	// "MATRIX1", ...); empty for run-level events.
	Target string
	// Bit is the fault-space bit coordinate for injection events; for
	// KindStoreForward it carries the forwarded memory address.
	Bit uint64
	// Commit is the commit index of the first divergence (KindDiverged).
	Commit int
	// N is an event magnitude (micro-ops discarded by a squash).
	N uint64
	// Detail is a human-readable elaboration.
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("[cycle %d] %s", e.Cycle, e.Kind)
	if e.Target != "" {
		s += " " + e.Target
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Tracer receives fault-lifecycle events. Implementations used by
// multi-worker campaigns must be safe for concurrent Emit calls (JSONLSink
// is; RingSink is single-goroutine and meant for one-run tracing like
// `marvel explain`). A nil Tracer disables tracing: engines guard every
// emission with a single nil check.
type Tracer interface {
	Emit(Event)
}

// RingSink is a bounded in-memory sink that keeps the head and tail of an
// event stream: the first half of its capacity is kept verbatim (arming,
// injection and first-consumption events land there) and the rest is a
// ring of the most recent events (divergence, watchdog and verdict land
// there), so a narrative survives arbitrarily chatty middles. Emit never
// allocates after construction. Not safe for concurrent use.
type RingSink struct {
	head []Event
	tail []Event
	next int // ring cursor into tail once it is full
	n    int // total events emitted
}

// NewRingSink returns a sink holding at most capacity events (minimum 2).
func NewRingSink(capacity int) *RingSink {
	if capacity < 2 {
		capacity = 2
	}
	h := capacity / 2
	return &RingSink{
		head: make([]Event, 0, h),
		tail: make([]Event, 0, capacity-h),
	}
}

// Emit implements Tracer.
func (r *RingSink) Emit(ev Event) {
	r.n++
	if len(r.head) < cap(r.head) {
		r.head = append(r.head, ev)
		return
	}
	if len(r.tail) < cap(r.tail) {
		r.tail = append(r.tail, ev)
		return
	}
	r.tail[r.next] = ev
	r.next = (r.next + 1) % cap(r.tail)
}

// Len reports how many events were emitted (including dropped ones).
func (r *RingSink) Len() int { return r.n }

// Dropped reports how many middle-of-stream events were evicted.
func (r *RingSink) Dropped() int { return r.n - len(r.head) - len(r.tail) }

// Events returns the retained events in emission order.
func (r *RingSink) Events() []Event {
	out := make([]Event, 0, len(r.head)+len(r.tail))
	out = append(out, r.head...)
	out = append(out, r.tail[r.next:]...)
	out = append(out, r.tail[:r.next]...)
	return out
}

// jsonEvent is the wire form of an Event (kind as its string name).
type jsonEvent struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Target string `json:"target,omitempty"`
	Bit    uint64 `json:"bit,omitempty"`
	Commit int    `json:"commit,omitempty"`
	N      uint64 `json:"n,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// MarshalJSON renders the event with its kind spelled out.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{
		Cycle: e.Cycle, Kind: e.Kind.String(), Target: e.Target,
		Bit: e.Bit, Commit: e.Commit, N: e.N, Detail: e.Detail,
	})
}

// JSONLSink streams events as JSON lines to a writer. Safe for concurrent
// Emit calls (one line per event, internally serialized). Write errors are
// sticky and reported by Err.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink wraps w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Tracer.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Err returns the first write or marshal error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
