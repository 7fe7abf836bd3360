// Command perfbench is marvel's layered host-performance benchmark. It
// drives each layer of a fault campaign through that layer's exported
// functions — the calls the marvel facade makes, in the same order — and
// reports how fast the host delivers simulated cycles and classified
// faults. Every run also checks that the simulated results are exactly
// the recorded ones, so the numbers measure host speed only.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload kernel|campaign|accel|sweep \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and a
// span file is written under the work directory. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the recorded verdict-stream digests belong to.
const defaultSeed = 1

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizes fixes how much work one unit of each workload does. The grids
// themselves are fixed; only the fault counts, the number of set-up
// rounds and the minimum number of timed passes are sized.
type sizes struct {
	Faults      faultCounts
	SetupRounds int // repeated set-ups, reported as their median
	MinPasses   int // timed passes at least, whatever the time budget
}

// faultCounts are the faults per cell of each fault workload; the
// verdict-stream digests depend on them.
type faultCounts struct {
	Campaign int `json:"campaign"`
	Accel    int `json:"accel"`
	Sweep    int `json:"sweep"`
}

// fullSizes are the sizes the recorded digests and BENCHMARK.json use.
var fullSizes = sizes{
	Faults:      faultCounts{Campaign: 60, Accel: 24, Sweep: 2},
	SetupRounds: 5,
	MinPasses:   3,
}

// bench is the state of one workload run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     sizes
	expect   *expectations
	workdir  string
	out      io.Writer
	tr       *tracer       // nil unless traced
	seen     *expectations // what this run observed

	attempted int // operations: golden simulations or classified faults
	failed    int
	problems  []string
	metrics   map[string]metric
}

// fail records a correctness problem. A run with any problem counts
// every operation it attempted as failed: one wrong verdict or golden
// result makes the whole run's output untrustworthy.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// set records one metric.
func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// pass is one timed unit of a workload.
type pass struct {
	ops     int     // golden simulations (kernel) or classified faults
	cycles  uint64  // simulated cycles stepped
	seconds float64 // host seconds of the timed layer calls
}

// measure runs timed passes until the budget is spent and at least
// MinPasses have run, returning them in order. Like testing.B, it
// collects garbage before each pass, so no pass pays for the previous
// one's garbage and the peak heap is that of a single pass.
func (b *bench) measure(budget float64, traced bool, run func(traced bool) (pass, error)) ([]pass, error) {
	var out []pass
	start := time.Now()
	for len(out) < b.size.MinPasses || time.Since(start).Seconds() < budget {
		runtime.GC()
		p, err := run(traced)
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// headline reports the median throughputs of passes.
func headline(ps []pass) (opsPerS, cyclesPerS float64) {
	ops := make([]float64, len(ps))
	cyc := make([]float64, len(ps))
	for i, p := range ps {
		ops[i] = float64(p.ops) / p.seconds
		cyc[i] = float64(p.cycles) / p.seconds
	}
	return median(ops), median(cyc)
}

// timed runs the workload's passes and returns the median untraced
// operations per second. Untraced, every pass feeds the end-to-end
// metrics. Traced, the first half of the budget runs untraced and the
// second half traced, and the difference is the tracing overhead.
func (b *bench) timed(run func(traced bool) (pass, error)) (float64, error) {
	if !b.traced {
		ps, err := b.measure(b.seconds, false, run)
		if err != nil {
			return 0, err
		}
		ops, cyc := headline(ps)
		b.set("ops_per_s", "ops/s", ops)
		b.set("sim_cycles_per_s", "cycles/s", cyc)
		return ops, nil
	}
	plain, err := b.measure(b.seconds/2, false, run)
	if err != nil {
		return 0, err
	}
	gc0 := gcCPUSeconds()
	t0 := time.Now()
	traced, err := b.measure(b.seconds/2, true, run)
	if err != nil {
		return 0, err
	}
	b.set("runtime.gc_cpu_frac", "ratio", (gcCPUSeconds()-gc0)/time.Since(t0).Seconds())
	plainOps, _ := headline(plain)
	tracedOps, _ := headline(traced)
	b.set("bench.trace_overhead_frac", "ratio", 1-tracedOps/plainOps)
	return plainOps, nil
}

// setupRounds times SetupRounds set-ups and reports their median as
// setup_s. Each round redoes the full set-up from a collected heap; the
// last one's products are what the passes use.
func (b *bench) setupRounds(round func() error) error {
	var secs []float64
	for i := 0; i < b.size.SetupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := round(); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	b.setupSeconds(secs)
	return nil
}

func (b *bench) setupSeconds(secs []float64) {
	if !b.traced {
		b.set("setup_s", "s", median(secs))
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runners maps each workload name to the function that runs it.
var runners = map[string]func(*bench) error{
	"kernel":   runKernel,
	"campaign": runCampaign,
	"accel":    runAccel,
	"sweep":    runSweep,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "kernel, campaign, accel or sweep")
	seed := fs.Int64("seed", defaultSeed, "workload seed (digests are recorded for seed 1)")
	seconds := fs.Float64("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant and writes a span file")
	workdir := fs.String("workdir", ".bench_build", "directory for span files and sweep journals")
	record := fs.String("record", "", "write the expectations measured at the default seed to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exp, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := recordExpectations(*record, *workdir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	return runBench(&bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		size:     fullSizes,
		expect:   exp,
		workdir:  *workdir,
		out:      stdout,
	}, stderr)
}

// runBench runs one workload, prints its result and returns the exit
// code: 0 only when every correctness check passed.
func runBench(b *bench, stderr io.Writer) int {
	res, err := execute(b)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(b, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, p := range b.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result. An error means the
// benchmark could not run at all; a failed correctness check still yields
// a result, with Correct false.
func execute(b *bench) (*result, error) {
	fn, ok := runners[b.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want kernel, campaign, accel or sweep)", b.workload)
	}
	if b.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return nil, err
	}
	b.metrics = map[string]metric{}
	b.seen = newObservations()
	if b.traced {
		b.tr = newTracer()
	}
	if err := fn(b); err != nil {
		// A layer call that errors spoils the whole run.
		b.fail("%v", err)
	}
	if b.attempted == 0 {
		b.attempted = 1
	}
	if len(b.problems) > 0 {
		b.failed = b.attempted
	}
	if b.traced {
		fillLayerDefaults(b)
		if err := b.tr.write(b.spanPath(), b.workload, b.seed); err != nil {
			return nil, err
		}
	} else {
		b.set("peak_rss_mb", "MB", peakRSSMB())
	}
	return &result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

func (b *bench) spanPath() string {
	return fmt.Sprintf("%s/spans/%s-seed%d.json", b.workdir, b.workload, b.seed)
}

// printResult prints every metric by name with its unit, then the
// result object as the last line.
func printResult(b *bench, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(&sb, "%-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	if b.workload != "kernel" {
		if m, ok := res.Metrics["ops_per_s"]; ok {
			fmt.Fprintf(&sb, "%-44s %16.6g %s\n", "faults_per_s", m.Value, "faults/s")
		}
	}
	fmt.Fprintf(&sb, "%-44s %16.6g %s\n", "failed_frac", frac, "ratio")
	if b.traced {
		fmt.Fprintf(&sb, "spans written to %s\n", b.spanPath())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	sb.Write(line)
	sb.WriteByte('\n')
	_, err = io.WriteString(b.out, sb.String())
	return err
}
