package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestRingSinkKeepsHeadAndTail(t *testing.T) {
	s := NewRingSink(8) // head keeps 4, tail ring keeps 4
	for i := 0; i < 20; i++ {
		s.Emit(Event{Cycle: uint64(i)})
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	if s.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", s.Dropped())
	}
	got := s.Events()
	want := []uint64{0, 1, 2, 3, 16, 17, 18, 19}
	if len(got) != len(want) {
		t.Fatalf("retained %d events, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Cycle != want[i] {
			t.Fatalf("events[%d].Cycle = %d, want %d (stream %v)", i, ev.Cycle, want[i], got)
		}
	}
}

func TestRingSinkNoEvictionUnderCapacity(t *testing.T) {
	s := NewRingSink(8)
	for i := 0; i < 6; i++ {
		s.Emit(Event{Cycle: uint64(i)})
	}
	if s.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", s.Dropped())
	}
	got := s.Events()
	for i, ev := range got {
		if ev.Cycle != uint64(i) {
			t.Fatalf("events[%d].Cycle = %d, want %d", i, ev.Cycle, i)
		}
	}
}

func TestEventJSONKindName(t *testing.T) {
	b, err := json.Marshal(Event{Cycle: 7, Kind: KindBitFlipped, Target: "prf", Bit: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"bit-flipped"`) {
		t.Fatalf("marshal = %s, want kind spelled out", b)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Cycle: 1, Kind: KindFaultArmed, Target: "rob"})
	s.Emit(Event{Cycle: 9, Kind: KindVerdict, Detail: "masked"})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var ev struct {
		Cycle uint64 `json:"cycle"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "verdict" || ev.Cycle != 9 {
		t.Fatalf("line 2 = %+v, want verdict at cycle 9", ev)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestJSONLSinkStickyError(t *testing.T) {
	s := NewJSONLSink(failWriter{})
	s.Emit(Event{})
	s.Emit(Event{})
	if s.Err() != io.ErrClosedPipe {
		t.Fatalf("Err = %v, want %v", s.Err(), io.ErrClosedPipe)
	}
}

func TestKindLifecycleOrder(t *testing.T) {
	// The Kind constants are declared in fault-lifecycle order; narration
	// and tests rely on armed < flipped < read < verdict.
	order := []Kind{KindFaultArmed, KindStuckApplied, KindBitFlipped, KindCorruptRead, KindVerdict}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("%v (%d) not before %v (%d)", order[i-1], order[i-1], order[i], order[i])
		}
	}
}

func TestRegistryConcurrentAdds(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					reg.AddVerdict("masked", false, false)
				case 1:
					reg.AddVerdict("sdc", true, true)
				case 2:
					reg.AddVerdict("crash", false, false)
				}
				reg.AddForkStats(1, 2)
				reg.CellLatencyMS.Observe(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	s := reg.Snapshot()
	if s.FaultsDone != workers*per {
		t.Fatalf("FaultsDone = %d, want %d", s.FaultsDone, workers*per)
	}
	if s.Masked+s.SDC+s.Crash != workers*per {
		t.Fatalf("verdict mix %d+%d+%d != %d", s.Masked, s.SDC, s.Crash, workers*per)
	}
	if s.Forks != workers*per || s.ForkReuses != 2*workers*per {
		t.Fatalf("fork stats = %d/%d, want %d/%d", s.Forks, s.ForkReuses, workers*per, 2*workers*per)
	}
	if got := reg.CellLatencyMS.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if rate := reg.ForkReuseRate(); rate < 0.66 || rate > 0.67 {
		t.Fatalf("ForkReuseRate = %f, want ~2/3", rate)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 506 {
		t.Fatalf("Sum = %d, want 506", h.Sum())
	}
	if m := h.Mean(); m < 101 || m > 102 {
		t.Fatalf("Mean = %f, want ~101.2", m)
	}
	b := h.Buckets()
	var total uint64
	for i, bc := range b {
		total += bc.Count
		if i > 0 && bc.UpperBound <= b[i-1].UpperBound {
			t.Fatalf("buckets not in ascending bound order: %v", b)
		}
	}
	if total != 5 {
		t.Fatalf("bucket sum = %d (%v), want 5", total, b)
	}
	// 0 → bound 0; 1 → bound 1; 2,3 → bound 3; 500 → bound 511.
	want := []BucketCount{{0, 1}, {1, 1}, {3, 2}, {511, 1}}
	if len(b) != len(want) {
		t.Fatalf("buckets = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestNarrativeWhy(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{
			"overwrite-masked",
			[]Event{{Kind: KindFaultArmed}, {Kind: KindBitFlipped}, {Kind: KindOverwriteMasked}, {Kind: KindVerdict, Detail: "masked"}},
			"overwritten or freed before any read",
		},
		{
			"invalid-entry",
			[]Event{{Kind: KindFaultArmed}, {Kind: KindInvalidMasked}, {Kind: KindVerdict, Detail: "masked"}},
			"dead or invalid entry",
		},
		{
			"watchdog-hang",
			[]Event{{Kind: KindFaultArmed}, {Kind: KindBitFlipped}, {Kind: KindWatchdog}, {Kind: KindVerdict, Detail: "crash"}},
			"watchdog cycle budget",
		},
		{
			"divergence",
			[]Event{{Kind: KindFaultArmed}, {Kind: KindBitFlipped}, {Kind: KindDiverged, Commit: 42}, {Kind: KindVerdict, Detail: "sdc"}},
			"diverged from the golden trace at commit #42",
		},
		{
			"never-consumed",
			[]Event{{Kind: KindFaultArmed}, {Kind: KindBitFlipped}, {Kind: KindVerdict, Detail: "masked"}},
			"never consumed",
		},
		{
			"converged",
			[]Event{{Kind: KindFaultArmed}, {Kind: KindBitFlipped}, {Cycle: 900, Kind: KindConverged, N: 4000}, {Kind: KindVerdict, Detail: "masked"}},
			"rejoined the golden run at cycle 900",
		},
		{
			"consumed-but-masked",
			[]Event{{Kind: KindFaultArmed}, {Kind: KindBitFlipped}, {Kind: KindCorruptRead}, {Kind: KindVerdict, Detail: "masked"}},
			"logically masked downstream",
		},
	}
	for _, tc := range cases {
		lines := Narrative(tc.events)
		if len(lines) == 0 {
			t.Fatalf("%s: empty narrative", tc.name)
		}
		last := lines[len(lines)-1]
		if !strings.HasPrefix(last, "why: ") || !strings.Contains(last, tc.want) {
			t.Fatalf("%s: why line %q does not contain %q", tc.name, last, tc.want)
		}
	}
}

func TestNarrativeAggregatesChattyKinds(t *testing.T) {
	events := []Event{
		{Kind: KindFaultArmed},
		{Kind: KindBitFlipped},
		{Kind: KindSquash, N: 5},
		{Kind: KindSquash, N: 3},
		{Kind: KindStoreForward},
		{Kind: KindVerdict, Detail: "masked"},
	}
	text := strings.Join(Narrative(events), "\n")
	if !strings.Contains(text, "2 pipeline squash(es) discarding 8 in-flight") {
		t.Fatalf("squashes not aggregated:\n%s", text)
	}
	if !strings.Contains(text, "1 store-to-load forward(s)") {
		t.Fatalf("forwards not aggregated:\n%s", text)
	}
	if strings.Count(text, "squash") != 1 {
		t.Fatalf("squash events should not appear line-by-line:\n%s", text)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.AddVerdict("sdc", false, true)
	reg.Publish("marvel-test")
	reg.Publish("marvel-test") // re-publishing rebinds, must not panic

	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var snap RegistrySnapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.FaultsDone != 1 || snap.SDC != 1 || snap.HVFCorrupt != 1 {
		t.Fatalf("metrics snapshot = %+v, want one sdc fault", snap)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "marvel-test") {
		t.Fatalf("/debug/vars does not include the published registry:\n%.300s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%.300s", idx)
	}
}

// TestTracerZeroAlloc is the zero-cost-when-off guard: the nil-guarded
// emission pattern used in engine hot paths must not allocate, with
// tracing off or on (RingSink).
func TestTracerZeroAlloc(t *testing.T) {
	var tr Tracer // nil: tracing off
	offAllocs := testing.AllocsPerRun(1000, func() {
		if tr != nil {
			tr.Emit(Event{Cycle: 1, Kind: KindSquash, Target: "rob", N: 4})
		}
	})
	if offAllocs != 0 {
		t.Fatalf("nil-guarded emission allocates %.1f/op, want 0", offAllocs)
	}

	sink := NewRingSink(64)
	tr = sink
	onAllocs := testing.AllocsPerRun(1000, func() {
		if tr != nil {
			tr.Emit(Event{Cycle: 1, Kind: KindSquash, Target: "rob", N: 4})
		}
	})
	if onAllocs != 0 {
		t.Fatalf("RingSink emission allocates %.1f/op, want 0", onAllocs)
	}
}

func BenchmarkTracerEmitNil(b *testing.B) {
	var tr Tracer
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Emit(Event{Cycle: uint64(i), Kind: KindSquash})
		}
	}
}

func BenchmarkTracerEmitRing(b *testing.B) {
	tr := Tracer(NewRingSink(512))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Cycle: uint64(i), Kind: KindSquash})
	}
}

func ExampleNarrative() {
	events := []Event{
		{Cycle: 10, Kind: KindFaultArmed, Target: "prf", Detail: "transient at cycle 120"},
		{Cycle: 120, Kind: KindBitFlipped, Target: "prf"},
		{Cycle: 131, Kind: KindCorruptRead, Target: "prf", Detail: "corrupted bit consumed"},
		{Cycle: 140, Kind: KindDiverged, Commit: 9, Detail: "commit stream departs from golden trace"},
		{Cycle: 900, Kind: KindVerdict, Target: "prf", Detail: "sdc"},
	}
	for _, line := range Narrative(events) {
		fmt.Println(line)
	}
	// Output:
	// [cycle 10] fault-armed prf: transient at cycle 120
	// [cycle 120] bit-flipped prf
	// [cycle 131] first-corrupt-read prf: corrupted bit consumed
	// [cycle 140] divergence: commit stream departs from golden trace
	// [cycle 900] verdict prf: sdc
	// why: the fault escaped to architectural state: the commit stream first diverged from the golden trace at commit #9.
}
