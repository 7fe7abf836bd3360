package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"marvel/internal/obs"
)

// span is one layer call of a traced run. Spans of one cell, design or
// golden share a Key.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. Layer
// calls made by the benchmark's own goroutine and by the sweep's workers
// (through the golden cache) both record here, so it is locked. A nil
// tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// profiles holds the engines' own phase attribution, one snapshot per
	// profiled layer call, keyed like the span that made the call.
	profiles map[string]obs.ProfileSnapshot
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), profiles: map[string]obs.ProfileSnapshot{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// profile keeps an engine profiler's snapshot under key.
func (t *tracer) profile(key string, p *obs.Profiler) {
	if t == nil || p == nil {
		return
	}
	t.mu.Lock()
	t.profiles[key] = p.Snapshot()
	t.mu.Unlock()
}

// selfTimes fills every span's self time: its duration minus the part of
// it that its children cover.
func (t *tracer) selfTimes() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfSeconds totals the self time of every span with the given name.
func (t *tracer) selfSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Self
		}
	}
	return float64(ns) / 1e9
}

// spanFile is the traced run's output document.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	// SelfSeconds totals self time per span name.
	SelfSeconds map[string]float64 `json:"self_seconds"`
	// Phases are the engines' own attributions (obs.Profiler), keyed by
	// the cell, design or sweep they were taken from.
	Phases map[string]obs.ProfileSnapshot `json:"phases"`
}

// write saves every span, with self times, to path.
func (t *tracer) write(path, workload string, seed int64) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	doc := spanFile{Workload: workload, Seed: seed, Spans: t.spans, SelfSeconds: map[string]float64{}, Phases: t.profiles}
	for _, s := range t.spans {
		doc.SelfSeconds[s.Name] += float64(s.Self) / 1e9
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing span file: %w", cerr)
		}
	}()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}

// median of xs; 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile of xs by linear interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// gcCPUSeconds is the GC's cumulative CPU time from runtime/metrics.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// allocs reports the process's cumulative heap allocation count and
// bytes.
func allocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// workerBusy sums the busy time of an engine profiler's worker lanes.
func workerBusy(s obs.ProfileSnapshot) float64 {
	var busy float64
	for _, l := range s.Lanes {
		if strings.HasPrefix(l.Lane, "worker-") {
			busy += l.BusySec
		}
	}
	return busy
}

// phaseSeconds is one phase's self time in an engine profiler snapshot.
func phaseSeconds(s obs.ProfileSnapshot, phase obs.Phase) float64 {
	for _, p := range s.Phases {
		if p.Phase == phase.String() {
			return p.Seconds
		}
	}
	return 0
}
