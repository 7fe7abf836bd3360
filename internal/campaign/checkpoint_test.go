package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"marvel/internal/config"
	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/trace"
	"marvel/internal/workloads"
)

// footprint sums the bytes reachable from the roots, counting every
// pointer target and slice backing array once. The program image, the
// MMIO bus and the ISA are shared by every system built from one image,
// so they are not counted.
type footprint struct{ seen map[uintptr]bool }

var sharedTypes = map[reflect.Type]bool{
	reflect.TypeOf((*program.Image)(nil)):   true,
	reflect.TypeOf((*mem.Bus)(nil)):         true,
	reflect.TypeOf((*isa.Arch)(nil)).Elem(): true,
}

func (f *footprint) of(roots ...any) int {
	n := 0
	for _, r := range roots {
		n += f.heap(reflect.ValueOf(r))
	}
	return n
}

// heap returns the bytes v references beyond its own inline size.
func (f *footprint) heap(v reflect.Value) int {
	if sharedTypes[v.Type()] {
		return 0
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || f.seen[v.Pointer()] {
			return 0
		}
		f.seen[v.Pointer()] = true
		return int(v.Type().Elem().Size()) + f.heap(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return f.heap(v.Elem())
	case reflect.Slice:
		if v.IsNil() || v.Cap() == 0 || f.seen[v.Pointer()] {
			return 0
		}
		f.seen[v.Pointer()] = true
		n := v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += f.heap(v.Index(i))
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += f.heap(v.Field(i))
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += f.heap(v.Index(i))
		}
		return n
	case reflect.String:
		return v.Len()
	}
	return 0
}

// TestCheckpointFootprint pins the point of delta checkpoints: for every
// shipped golden on Table II, golden prep records goldenCheckpoints of
// them, and their page and cache-set copies together take less than a
// tenth of the bytes of one full Clone of the window-start snapshot.
// Each checkpoint also holds a CPU clone (about 34 KB on Table II), which
// is logged but not part of the bound.
func TestCheckpointFootprint(t *testing.T) {
	pre := config.TableII()
	for _, a := range isa.All() {
		for _, w := range workloads.Names() {
			spec, err := workloads.ByName(w)
			if err != nil {
				t.Fatal(err)
			}
			img, err := program.Compile(a, spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			g, err := PrepareGolden(Config{Image: img, Preset: pre})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(g.rungs) - 1; n != goldenCheckpoints {
				t.Errorf("%s/%s: %d checkpoints, want %d", a.Name(), w, n, goldenCheckpoints)
				continue
			}
			copies, whole := &footprint{seen: map[uintptr]bool{}}, &footprint{seen: map[uintptr]bool{}}
			var deltaBytes, allBytes int
			for _, r := range g.rungs[1:] {
				deltaBytes += copies.heap(reflect.ValueOf(r.delta).Elem().FieldByName("hier"))
				allBytes += whole.of(r.delta)
			}
			clone := (&footprint{seen: map[uintptr]bool{}}).of(g.base.Clone())
			t.Logf("%s/%s: page and set copies %d B (%.1f%% of a %d B clone), with CPU clones %d B (%.1f%%)",
				a.Name(), w, deltaBytes, 100*float64(deltaBytes)/float64(clone), clone, allBytes, 100*float64(allBytes)/float64(clone))
			if 10*deltaBytes >= clone {
				t.Errorf("%s/%s: checkpoint copies take %d B, not below a tenth of a %d B clone", a.Name(), w, deltaBytes, clone)
			}
		}
	}
}

// TestGoldenOnForkMatchesFlatRun pins golden prep's continuation on a
// fork of the window-start base: for every shipped workload, ISA and
// preset, the golden's cycles, output, statistics and full commit trace
// equal a flat run of the program from a freshly built system.
func TestGoldenOnForkMatchesFlatRun(t *testing.T) {
	for _, pre := range []config.Preset{config.TableII(), config.Fast()} {
		for _, a := range isa.All() {
			for _, w := range workloads.Names() {
				name := pre.Name + "/" + a.Name() + "/" + w
				spec, err := workloads.ByName(w)
				if err != nil {
					t.Fatal(err)
				}
				img, err := program.Compile(a, spec.Build())
				if err != nil {
					t.Fatal(err)
				}
				g, err := PrepareGolden(Config{Image: img, Preset: pre})
				if err != nil {
					t.Fatal(err)
				}
				flat, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
				if err != nil {
					t.Fatal(err)
				}
				comp := trace.NewComparator(g.trace)
				flat.CPU.CommitHook = comp.Hook()
				res := flat.Run(goldenBudget)
				if res.Status != soc.RunCompleted || res.Cycles != g.Info.Cycles || res.Stats != g.Info.Stats ||
					!bytes.Equal(res.Output, g.Info.Output) {
					t.Errorf("%s: flat run %v at %d cycles, stats %+v; golden %d cycles, stats %+v (output equal: %v)",
						name, res.Status, res.Cycles, res.Stats, g.Info.Cycles, g.Info.Stats, bytes.Equal(res.Output, g.Info.Output))
				}
				if comp.Finalize() {
					t.Errorf("%s: flat commit stream departs from the golden trace at commit %d of %d",
						name, comp.DivergePoint(), g.trace.Len())
				}
				if lo, hi, ok := flat.HasWindow(); ok && (lo != g.Info.WindowLo || hi != g.Info.WindowHi) {
					t.Errorf("%s: flat window [%d, %d), golden [%d, %d)", name, lo, hi, g.Info.WindowLo, g.Info.WindowHi)
				}
			}
		}
	}
}
