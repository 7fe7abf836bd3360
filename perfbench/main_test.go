package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"marvel"
)

// tinySizes keep every workload to a second or two.
var tinySizes = sizes{
	Faults:      faultCounts{Campaign: 4, Accel: 2, Sweep: 1},
	SetupRounds: 1,
	MinPasses:   1,
}

// tinyBench is a run of workload at tiny size against exp.
func tinyBench(t *testing.T, workload string, traced bool, exp *expectations) *bench {
	t.Helper()
	return &bench{
		workload: workload,
		seed:     defaultSeed,
		seconds:  1e-9,
		traced:   traced,
		size:     tinySizes,
		expect:   exp,
		workdir:  t.TempDir(),
	}
}

func mustExpectations(t *testing.T) *expectations {
	t.Helper()
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// runTiny runs b and returns its exit code, its printed output and the
// parsed last line.
func runTiny(t *testing.T, b *bench) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	b.out = &stdout
	code := runBench(b, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstderr: %s", b.workload, err, stderr.String())
	}
	return code, stdout.String(), res
}

// TestEveryMetricPrinted runs each workload at tiny size, untraced and
// traced, and checks that every named metric is printed with its unit
// and that the run is correct.
func TestEveryMetricPrinted(t *testing.T) {
	// One target and one model keep the sweep's 45 golden builds but cut
	// its cells to 45.
	targets, models := sweepTargets, sweepModels
	sweepTargets, sweepModels = []string{"rob"}, []string{"transient"}
	t.Cleanup(func() { sweepTargets, sweepModels = targets, models })

	exp := mustExpectations(t)
	for _, w := range []string{"kernel", "campaign", "accel", "sweep"} {
		for _, traced := range []bool{false, true} {
			b := tinyBench(t, w, traced, exp)
			code, out, res := runTiny(t, b)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: code %d, result %+v, problems %v", w, traced, code, res, b.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m[0]]
				if !ok || got.Unit != m[1] {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m[0], got, m[1])
				}
				if !strings.Contains(out, m[0]+" ") {
					t.Errorf("%s traced=%v: %s not printed by name", w, traced, m[0])
				}
			}
			if traced {
				if _, err := os.Stat(b.spanPath()); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
			} else if res.Metrics["ops_per_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: throughput or set-up time not measured: %+v", w, res.Metrics)
			}
		}
	}
}

// TestCorruptedDigestFails records the tiny campaign's digests, checks
// that a run against them passes, then corrupts one and demands failure.
func TestCorruptedDigestFails(t *testing.T) {
	exp := mustExpectations(t)
	b := tinyBench(t, "campaign", false, exp)
	if code, _, _ := runTiny(t, b); code != 0 {
		t.Fatalf("clean run failed: %v", b.problems)
	}
	exp.Faults = tinySizes.Faults
	exp.Digests = b.seen.Digests
	if code, _, res := runTiny(t, tinyBench(t, "campaign", false, exp)); code != 0 || !res.Correct {
		t.Fatalf("run against its own digests failed: %+v", res)
	}
	key := "campaign:" + campaignCells[0].key()
	exp.Digests[key] = "0000000000000000"
	code, _, res := runTiny(t, tinyBench(t, "campaign", false, exp))
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("corrupted digest %s went unnoticed: code %d, %+v", key, code, res)
	}
}

// TestCorruptedGoldenCyclesFails corrupts one recorded golden cycle count
// and demands that the run fails.
func TestCorruptedGoldenCyclesFails(t *testing.T) {
	exp := mustExpectations(t)
	c := campaignCells[0]
	key := c.isa + "/" + c.workload
	g := exp.Golden[key]
	g.Cycles++
	exp.Golden[key] = g
	code, _, res := runTiny(t, tinyBench(t, "campaign", false, exp))
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("corrupted golden cycles for %s went unnoticed: code %d, %+v", key, code, res)
	}
}

// TestCampaignMatchesFacade checks that the campaign workload's calls
// reproduce the verdict counts of `marvel campaign -isa riscv -workload
// qsort -target prf -workers 2`, which runs through the facade.
func TestCampaignMatchesFacade(t *testing.T) {
	b := tinyBench(t, "campaign", false, mustExpectations(t))
	code, out, _ := runTiny(t, b)
	if code != 0 {
		t.Fatalf("campaign failed: %v", b.problems)
	}
	c := campaignCells[0]
	rep, err := marvel.RunCampaign(marvel.CampaignOptions{
		ISA: c.isa, Workload: c.workload, Target: c.target, Model: marvel.Transient,
		Faults: tinySizes.Faults.Campaign, Seed: defaultSeed, ValidOnly: true, Workers: campaignWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("digest campaign:%s %s masked=%d sdc=%d crash=%d\n",
		c.key(), b.seen.Digests["campaign:"+c.key()], rep.Masked, rep.SDC, rep.Crash)
	if !strings.Contains(out, want) {
		t.Errorf("facade counts differ: want line %q in\n%s", want, out)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
