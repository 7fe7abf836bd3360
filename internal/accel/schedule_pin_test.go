package accel_test

// Pins the accelerator engine's absolute timing. The campaign-vs-reference
// differentials run the same scheduler on both sides, so they cannot see
// a schedule change; this table can. For every MachSuite design under a
// grid of functional-unit sizings it records the golden task's cycle
// count and output, plus a digest of fixed transient flips in every bank
// (end cycle, error, output). Any change to issue order, latency or
// functional-unit arbitration moves at least one of these numbers.

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/machsuite"
)

// pinFlipsPerBank is the number of fixed transient flips run per bank.
const pinFlipsPerBank = 6

// pinWordBits are the in-word bit positions of the flips: high bits turn
// indices and trip counts into out-of-bank addresses or runaway loops,
// low bits into data corruption.
var pinWordBits = [pinFlipsPerBank]uint64{31, 17, 9, 26, 2, 22}

// pinStretchFlips are extra flips, per design, that lengthen the task
// past the pin's watchdog by inflating a loop bound read from a bank.
var pinStretchFlips = map[string][]struct {
	bank string
	bit  uint64
}{
	"bfs":  {{"NODES", 71}},
	"spmv": {{"ROWDELIM", 583}},
}

// pinFUSizing is one functional-unit configuration of the grid.
type pinFUSizing struct {
	name string
	fus  accel.FUConfig
}

// pinFUSizings returns the grid's sizings for spec: the design's own, the
// engine default, the five sizings of the Figure 17 sweep (the ones
// machsuite.GemmDesign(n) uses) and a single unit of each kind.
func pinFUSizings(spec machsuite.Spec) []pinFUSizing {
	out := []pinFUSizing{{"design", spec.Design.FUs}, {"default", accel.DefaultFUs()}}
	for _, n := range []int{1, 2, 4, 8, 16} {
		out = append(out, pinFUSizing{fmt.Sprintf("fig17-%d", n), machsuite.GemmDesign(n).FUs})
	}
	return append(out, pinFUSizing{"1/1/1/1", accel.FUConfig{Adders: 1, Multipliers: 1, Dividers: 1, MemPorts: 1}})
}

// pinFlip is one transient flip: bank index, bit and cluster cycle.
type pinFlip struct {
	bank       int
	bit, cycle uint64
}

// pinCell is one design × sizing point of the grid with its golden run.
type pinCell struct {
	design, sizing string
	d              *accel.Design
	task           accel.Task
	taskCycles     uint64 // golden TaskCycles
	output         []byte // golden output
	flips          []pinFlip
	budget         uint64 // watchdog: golden end cycle plus 1/8
}

func (c *pinCell) name() string { return c.design + "/" + c.sizing }

// pinGrid runs every cell's golden task and derives its flips.
func pinGrid(t testing.TB) []pinCell {
	t.Helper()
	var cells []pinCell
	for _, spec := range machsuite.All() {
		for _, sz := range pinFUSizings(spec) {
			d := *spec.Design
			d.FUs = sz.fus
			g, err := accel.NewStandalone(&d, spec.Task)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Run(50_000_000); err != nil {
				t.Fatalf("%s/%s golden: %v", spec.Name, sz.name, err)
			}
			out, err := g.Output()
			if err != nil {
				t.Fatal(err)
			}
			end := g.Cluster.Cycle()
			c := pinCell{
				design: spec.Name, sizing: sz.name, d: &d, task: spec.Task,
				taskCycles: g.Cluster.TaskCycles(), output: out,
				budget: end + end/8,
			}
			for bi, b := range g.Cluster.Banks() {
				words := b.BitLen() / 32
				for k := range uint64(pinFlipsPerBank) {
					word := (k*2654435761 + uint64(bi)*40503) % words
					c.flips = append(c.flips, pinFlip{
						bank:  bi,
						bit:   word*32 + pinWordBits[k],
						cycle: 1 + end*(k+1)/(pinFlipsPerBank+1),
					})
				}
			}
			for _, sf := range pinStretchFlips[spec.Name] {
				for bi, b := range g.Cluster.Banks() {
					if b.TargetName() == sf.bank {
						c.flips = append(c.flips, pinFlip{bank: bi, bit: sf.bit, cycle: end / 3})
					}
				}
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// pinOutcome is how one flipped run ended.
type pinOutcome struct {
	end     uint64 // cluster cycle at the end of the run
	err     string // "watchdog", the accelerator fault, or "" on completion
	outHash string
}

// runPinFlip resets the fork, arms the flip and runs the task to
// completion, fault or watchdog.
func runPinFlip(f *accel.Standalone, fl pinFlip, budget uint64) pinOutcome {
	f.Reset()
	f.Cluster.ScheduleFlip(fl.bank, fl.bit, fl.cycle)
	f.Cluster.Start()
	for !f.Cluster.Done() && f.Cluster.Cycle() < budget {
		f.Cluster.Tick()
	}
	return pinResult(f)
}

func pinResult(f *accel.Standalone) pinOutcome {
	o := pinOutcome{end: f.Cluster.Cycle()}
	switch {
	case !f.Cluster.Done():
		o.err = "watchdog"
	case f.Cluster.Faulted() != nil:
		o.err = f.Cluster.Faulted().Error()
	}
	out, err := f.Output()
	if err != nil {
		o.err += " output: " + err.Error()
	}
	o.outHash = hash64(out)
	return o
}

func hash64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// schedulePin is one checked-in row of the pin table.
type schedulePin struct {
	design, sizing string
	taskCycles     uint64
	outHash        string
	flipDigest     string
}

func TestSchedulePin(t *testing.T) {
	want := map[string]schedulePin{}
	for _, p := range schedulePins {
		want[p.design+"/"+p.sizing] = p
	}
	var faults, watchdogs int
	var rows []string
	for _, c := range pinGrid(t) {
		base, err := accel.NewStandalone(c.d, c.task)
		if err != nil {
			t.Fatal(err)
		}
		f := base.Fork()
		h := sha256.New()
		for _, fl := range c.flips {
			o := runPinFlip(f, fl, c.budget)
			switch {
			case o.err == "watchdog":
				watchdogs++
			case strings.HasPrefix(o.err, "accel:"):
				faults++
			}
			fmt.Fprintf(h, "%d %d %d: %d %q %s\n", fl.bank, fl.bit, fl.cycle, o.end, o.err, o.outHash)
		}
		got := schedulePin{
			design: c.design, sizing: c.sizing, taskCycles: c.taskCycles,
			outHash: hash64(c.output), flipDigest: fmt.Sprintf("%x", h.Sum(nil))[:16],
		}
		row := fmt.Sprintf("{%q, %q, %d, %q, %q},", got.design, got.sizing, got.taskCycles, got.outHash, got.flipDigest)
		rows = append(rows, row)
		if w, ok := want[c.name()]; !ok || w != got {
			t.Errorf("%s: got %s want %+v", c.name(), row, w)
		}
	}
	if len(schedulePins) != len(rows) {
		t.Errorf("table has %d rows, grid has %d", len(schedulePins), len(rows))
	}
	if t.Failed() {
		t.Logf("current table:\n%s", strings.Join(rows, "\n"))
	}
	// The flips must reach both abnormal endings, or the pin would not
	// cover the fault and watchdog paths.
	if faults == 0 || watchdogs == 0 {
		t.Errorf("flips ended in %d accelerator faults and %d watchdog expiries, want both > 0", faults, watchdogs)
	}
	t.Logf("%d cells, %d accelerator faults, %d watchdog expiries", len(rows), faults, watchdogs)
}

// schedulePins is the checked-in table: design, sizing, golden
// TaskCycles, golden output hash, flip digest.
var schedulePins = []schedulePin{
	{"bfs", "design", 4164, "2a503ff168055046", "8cbb10d3644d0724"},
	{"bfs", "default", 4164, "2a503ff168055046", "8cbb10d3644d0724"},
	{"bfs", "fig17-1", 4294, "2a503ff168055046", "67df9b8b8ddf92ac"},
	{"bfs", "fig17-2", 4165, "2a503ff168055046", "36cf9e0bb079889b"},
	{"bfs", "fig17-4", 4164, "2a503ff168055046", "8cbb10d3644d0724"},
	{"bfs", "fig17-8", 4164, "2a503ff168055046", "8cbb10d3644d0724"},
	{"bfs", "fig17-16", 4164, "2a503ff168055046", "8cbb10d3644d0724"},
	{"bfs", "1/1/1/1", 4871, "2a503ff168055046", "a2d490a248c21e5d"},
	{"fft", "design", 7113, "168604e735a1ba7d", "8da845a2dd59451a"},
	{"fft", "default", 7113, "168604e735a1ba7d", "8da845a2dd59451a"},
	{"fft", "fig17-1", 11316, "168604e735a1ba7d", "2477b72625438066"},
	{"fft", "fig17-2", 7498, "168604e735a1ba7d", "908f5ba00cdab8da"},
	{"fft", "fig17-4", 7113, "168604e735a1ba7d", "8da845a2dd59451a"},
	{"fft", "fig17-8", 7113, "168604e735a1ba7d", "8da845a2dd59451a"},
	{"fft", "fig17-16", 7113, "168604e735a1ba7d", "8da845a2dd59451a"},
	{"fft", "1/1/1/1", 21758, "168604e735a1ba7d", "bf4f25beb754a4dc"},
	{"gemm", "design", 5843, "c9af8e08261e24fb", "3b331ad5fa51f543"},
	{"gemm", "default", 5843, "c9af8e08261e24fb", "3b331ad5fa51f543"},
	{"gemm", "fig17-1", 17637, "c9af8e08261e24fb", "d400f730f3f06753"},
	{"gemm", "fig17-2", 9812, "c9af8e08261e24fb", "7bda02f1ac21c036"},
	{"gemm", "fig17-4", 5843, "c9af8e08261e24fb", "3b331ad5fa51f543"},
	{"gemm", "fig17-8", 4435, "c9af8e08261e24fb", "74f057418a62d7b5"},
	{"gemm", "fig17-16", 3667, "c9af8e08261e24fb", "c8b00437d89197a2"},
	{"gemm", "1/1/1/1", 34551, "c9af8e08261e24fb", "3c84b1cd61a59c98"},
	{"md_knn", "design", 1091, "ca7c1a7c35f089dc", "c6648eb2e59433f7"},
	{"md_knn", "default", 1091, "ca7c1a7c35f089dc", "c6648eb2e59433f7"},
	{"md_knn", "fig17-1", 1669, "ca7c1a7c35f089dc", "39ab93bd57eaca16"},
	{"md_knn", "fig17-2", 1188, "ca7c1a7c35f089dc", "7097f912330a7059"},
	{"md_knn", "fig17-4", 1091, "ca7c1a7c35f089dc", "c6648eb2e59433f7"},
	{"md_knn", "fig17-8", 1091, "ca7c1a7c35f089dc", "d0ef3d5afa7be3c3"},
	{"md_knn", "fig17-16", 1091, "ca7c1a7c35f089dc", "d0ef3d5afa7be3c3"},
	{"md_knn", "1/1/1/1", 2695, "ca7c1a7c35f089dc", "d07ad32b24118226"},
	{"mergesort", "design", 37682, "1c30b7b24806aed0", "11b2500f0ab61b8e"},
	{"mergesort", "default", 37682, "1c30b7b24806aed0", "11b2500f0ab61b8e"},
	{"mergesort", "fig17-1", 42289, "1c30b7b24806aed0", "5ea4c021a21167b7"},
	{"mergesort", "fig17-2", 37682, "1c30b7b24806aed0", "11b2500f0ab61b8e"},
	{"mergesort", "fig17-4", 37682, "1c30b7b24806aed0", "11b2500f0ab61b8e"},
	{"mergesort", "fig17-8", 37682, "1c30b7b24806aed0", "11b2500f0ab61b8e"},
	{"mergesort", "fig17-16", 37682, "1c30b7b24806aed0", "11b2500f0ab61b8e"},
	{"mergesort", "1/1/1/1", 69679, "1c30b7b24806aed0", "fd7b93e976bcd3fd"},
	{"spmv", "design", 4923, "525f1df935ca5a0f", "94452e7745f3a04d"},
	{"spmv", "default", 4923, "525f1df935ca5a0f", "94452e7745f3a04d"},
	{"spmv", "fig17-1", 4990, "525f1df935ca5a0f", "6f123f6a96f4ed52"},
	{"spmv", "fig17-2", 4924, "525f1df935ca5a0f", "63b542d6d14a8a77"},
	{"spmv", "fig17-4", 4923, "525f1df935ca5a0f", "94452e7745f3a04d"},
	{"spmv", "fig17-8", 4923, "525f1df935ca5a0f", "94452e7745f3a04d"},
	{"spmv", "fig17-16", 4923, "525f1df935ca5a0f", "94452e7745f3a04d"},
	{"spmv", "1/1/1/1", 5915, "525f1df935ca5a0f", "ee9388883d3829f9"},
	{"stencil2d", "design", 132582, "5cb7005bd9a0ee33", "37066d1ef75aa7ea"},
	{"stencil2d", "default", 132582, "5cb7005bd9a0ee33", "37066d1ef75aa7ea"},
	{"stencil2d", "fig17-1", 136214, "5cb7005bd9a0ee33", "8b9260bc0c7141e1"},
	{"stencil2d", "fig17-2", 132583, "5cb7005bd9a0ee33", "738db465fc06edb6"},
	{"stencil2d", "fig17-4", 132582, "5cb7005bd9a0ee33", "37066d1ef75aa7ea"},
	{"stencil2d", "fig17-8", 132582, "5cb7005bd9a0ee33", "37066d1ef75aa7ea"},
	{"stencil2d", "fig17-16", 132582, "5cb7005bd9a0ee33", "37066d1ef75aa7ea"},
	{"stencil2d", "1/1/1/1", 165046, "5cb7005bd9a0ee33", "c7866f4321344808"},
	{"stencil3d", "design", 5698, "c842bf65958ae358", "3d7b5e660ce3a522"},
	{"stencil3d", "default", 5698, "c842bf65958ae358", "3d7b5e660ce3a522"},
	{"stencil3d", "fig17-1", 8550, "c842bf65958ae358", "e6c672187f0a0fd4"},
	{"stencil3d", "fig17-2", 5915, "c842bf65958ae358", "e1f56ce8e500c345"},
	{"stencil3d", "fig17-4", 5698, "c842bf65958ae358", "3d7b5e660ce3a522"},
	{"stencil3d", "fig17-8", 5698, "c842bf65958ae358", "3d7b5e660ce3a522"},
	{"stencil3d", "fig17-16", 5698, "c842bf65958ae358", "3d7b5e660ce3a522"},
	{"stencil3d", "1/1/1/1", 14644, "c842bf65958ae358", "8b7b36dd2d65b77d"},
}
