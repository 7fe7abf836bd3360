package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// expectations are the simulated results every run is checked against.
// Golden cycle and instruction counts do not depend on the seed; the
// verdict-stream digests belong to Seed and Faults.
type expectations struct {
	Seed   int64       `json:"seed"`
	Faults faultCounts `json:"faults"`
	// Golden maps "isa/workload" (CPU) or "accel/design" to the
	// fault-free run's simulated cycles and instructions.
	Golden map[string]goldenRef `json:"golden"`
	// Digests maps "workload:cell key" to the cell's verdict-stream
	// digest.
	Digests map[string]string `json:"digests"`
}

type goldenRef struct {
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts,omitempty"`
}

//go:embed expect.json
var expectJSON []byte

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return &e, nil
}

func newObservations() *expectations {
	return &expectations{Golden: map[string]goldenRef{}, Digests: map[string]string{}}
}

// checkGolden compares one fault-free run with its recorded counts.
func (b *bench) checkGolden(key string, got goldenRef) {
	if prev, ok := b.seen.Golden[key]; ok && prev != got {
		b.fail("golden %s changed within the run: %+v then %+v", key, prev, got)
	}
	b.seen.Golden[key] = got
	if b.expect == nil {
		return
	}
	if want, ok := b.expect.Golden[key]; !ok || want != got {
		b.fail("golden %s: got %+v, recorded %+v", key, got, want)
	}
}

// checkDigest prints a cell's verdict-stream digest and verdict counts
// the first time it is seen, demands that repeated passes reproduce the
// digest, and compares it with the recorded one when the run uses the
// recorded seed and fault counts.
func (b *bench) checkDigest(key, digest string, masked, sdc, crash int) {
	key = b.workload + ":" + key
	prev, ok := b.seen.Digests[key]
	if ok && prev != digest {
		b.fail("digest %s changed within the run: %s then %s", key, prev, digest)
	}
	if !ok {
		fmt.Fprintf(b.out, "digest %s %s masked=%d sdc=%d crash=%d\n", key, digest, masked, sdc, crash)
		b.seen.Digests[key] = digest
	}
	if b.expect == nil || b.seed != b.expect.Seed || b.size.Faults != b.expect.Faults {
		return
	}
	if want := b.expect.Digests[key]; want != digest {
		b.fail("digest %s: got %s, recorded %q", key, digest, want)
	}
}

// recordExpectations runs every workload once at the default seed and
// full sizes without checks and writes what it observed to path. Use it
// only when a change is meant to alter simulated results.
func recordExpectations(path, workdir string) (err error) {
	all := newObservations()
	all.Seed, all.Faults = defaultSeed, fullSizes.Faults
	for _, name := range []string{"kernel", "campaign", "accel", "sweep"} {
		size := fullSizes
		size.SetupRounds, size.MinPasses = 1, 1
		b := &bench{workload: name, seed: defaultSeed, seconds: 1e-9, size: size, workdir: workdir, out: os.Stderr}
		if _, err := execute(b); err != nil {
			return err
		}
		if len(b.problems) > 0 {
			return fmt.Errorf("%s: %s", name, b.problems[0])
		}
		for _, k := range sortedKeys(b.seen.Golden) {
			all.Golden[k] = b.seen.Golden[k]
		}
		for _, k := range sortedKeys(b.seen.Digests) {
			all.Digests[k] = b.seen.Digests[k]
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
