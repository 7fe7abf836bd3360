package soc

import (
	"reflect"
	"testing"
	"unsafe"

	"marvel/internal/config"
	"marvel/internal/cpu"
	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/program"
	"marvel/internal/workloads"
)

// convergenceExclusions is the one list of state-structure fields the
// convergence check (MatchesDelta) deliberately does not compare, with the
// reason. Every other field of the structures in stateStructs must be
// compared: TestMatchesDeltaCoversEveryField perturbs each one on a fork
// positioned at a delta checkpoint and requires the match to fail, so a
// field added later fails the test until it is compared or listed here.
var convergenceExclusions = map[string]string{
	"soc.System.Bus":            "MMIO wiring, shared by every fork",
	"soc.System.Img":            "the program image, shared by every fork",
	"soc.System.devices":        "attached devices; forks and checkpoints carry none",
	"soc.System.CheckpointHook": "hook",
	"soc.System.golden":         "fork journal: the snapshot Reset returns to",
	"soc.System.at":             "fork journal: the delta checkpoint Reset returns to",

	"cpu.CPU.hier":       "hierarchy attachment; the system compares the hierarchy itself",
	"cpu.CPU.fstore":     "scratch buffer: only its fbuf window is state",
	"cpu.CPU.dec":        "scratch buffer: every instruction decodes into it before it is read",
	"cpu.CPU.mbuf":       "scratch buffer: staged before every load or store reads it",
	"cpu.CPU.MagicHook":  "hook",
	"cpu.CPU.CommitHook": "hook",
	"cpu.CPU.Trace":      "hook",

	"mem.Hierarchy.Bus":      "MMIO wiring, shared by every fork",
	"mem.Hierarchy.MMIOBase": "geometry, fixed at construction",

	"mem.Cache.cfg":          "geometry, fixed at construction",
	"mem.Cache.sets":         "geometry, fixed at construction",
	"mem.Cache.lineShift":    "geometry, fixed at construction",
	"mem.Cache.setMask":      "geometry, fixed at construction",
	"mem.Cache.lower":        "wiring to the next level",
	"mem.Cache.Stats":        "statistics: nothing in the simulation reads them",
	"mem.Cache.golden":       "fork journal",
	"mem.Cache.at":           "fork journal",
	"mem.Cache.atIdx":        "fork journal",
	"mem.Cache.setDirty":     "fork journal",
	"mem.Cache.dirtySets":    "fork journal",
	"mem.Cache.setsRestored": "fork journal",

	"mem.Memory.base":    "geometry, fixed at construction",
	"mem.Memory.size":    "geometry, fixed at construction",
	"mem.Memory.latency": "geometry, fixed at construction",
	"mem.Memory.data":    "flat-mode image: a fork keeps its image in golden, overlay and pages",
	"mem.Memory.cow":     "fork journal",
}

// stateStructs names every structure whose fields the check must cover,
// and where it lives in a system.
var stateStructs = []struct {
	name string
	of   func(s *System) reflect.Value
}{
	{"soc.System", func(s *System) reflect.Value { return reflect.ValueOf(s).Elem() }},
	{"cpu.CPU", func(s *System) reflect.Value { return reflect.ValueOf(s.CPU).Elem() }},
	{"cpu.PhysRegFile", func(s *System) reflect.Value { return reflect.ValueOf(s.CPU.PRF()).Elem() }},
	{"cpu.LSQ", func(s *System) reflect.Value { return reflect.ValueOf(s.CPU.LQ()).Elem() }},
	{"mem.Hierarchy", func(s *System) reflect.Value { return reflect.ValueOf(s.Hier).Elem() }},
	{"mem.Cache", func(s *System) reflect.Value { return reflect.ValueOf(s.Hier.L1D).Elem() }},
	{"mem.Memory", func(s *System) reflect.Value { return reflect.ValueOf(s.Mem).Elem() }},
}

// flipCache flips a data bit through the injection interface, which
// journals the set like any simulated write.
func flipCache(c func(s *System) *mem.Cache) func(*System, *Delta, reflect.Value) {
	return func(s *System, _ *Delta, _ reflect.Value) { c(s).Flip(0) }
}

// writeMem inverts one byte of main memory through Memory.Write.
func writeMem(s *System, _ *Delta, _ reflect.Value) {
	b := []byte{0}
	if err := s.Mem.Read(0x100, b); err != nil {
		panic(err)
	}
	b[0] = ^b[0]
	if err := s.Mem.Write(0x100, b); err != nil {
		panic(err)
	}
}

// cacheSetElem perturbs the first element a per-set array holds for the
// first set the checkpoint recorded for L1D; perSet gives the array's
// elements per set. Direct array writes bypass the set journal, so only a
// recorded set is guaranteed to be compared.
func cacheSetElem(perSet func(mem.CacheConfig) int) func(*System, *Delta, reflect.Value) {
	return func(s *System, d *Delta, f reflect.Value) {
		sets := reflect.ValueOf(&d.hier.L1D).Elem().FieldByName("sets")
		perturb(f.Index(int(sets.Index(0).Int()) * perSet(s.Hier.L1D.Config())))
	}
}

func perSet(mem.CacheConfig) int        { return 1 }
func perWay(c mem.CacheConfig) int      { return c.Ways }
func perLineByte(c mem.CacheConfig) int { return c.Ways * c.LineBytes }

// customPerturb mutates fields a generic perturbation cannot reach
// meaningfully: state behind a journal or an injection interface, and the
// copy-on-write image whose fields together form one byte view.
var customPerturb = map[string]func(s *System, d *Delta, f reflect.Value){
	"soc.System.Hier":   flipCache(func(s *System) *mem.Cache { return s.Hier.L2 }),
	"soc.System.Mem":    writeMem,
	"mem.Hierarchy.L1I": flipCache(func(s *System) *mem.Cache { return s.Hier.L1I }),
	"mem.Hierarchy.L1D": flipCache(func(s *System) *mem.Cache { return s.Hier.L1D }),
	"mem.Hierarchy.L2":  flipCache(func(s *System) *mem.Cache { return s.Hier.L2 }),
	"mem.Hierarchy.Mem": writeMem,
	"mem.Cache.tags":    cacheSetElem(perWay),
	"mem.Cache.valid":   cacheSetElem(perWay),
	"mem.Cache.dirty":   cacheSetElem(perWay),
	"mem.Cache.data":    cacheSetElem(perLineByte),
	"mem.Cache.plru":    cacheSetElem(perSet),
	// Of the core's statistics only the micro-op count is compared.
	"cpu.CPU.Stats":        func(s *System, _ *Delta, _ reflect.Value) { s.CPU.Stats.Uops++ },
	"mem.Memory.golden":    writeMem,
	"mem.Memory.at":        writeMem,
	"mem.Memory.overlay":   writeMem,
	"mem.Memory.pages":     writeMem,
	"mem.Memory.pageDirty": writeMem,
	"mem.Memory.dirtyList": writeMem,
}

// settable returns an addressable value's writable alias (test-only:
// unexported fields are otherwise read-only through reflection).
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// perturb changes v in place and reports whether it could.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
			return true
		}
		return perturb(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return false
		}
		v.Set(reflect.Zero(v.Type()))
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			return true
		}
		return perturb(v.Index(0))
	case reflect.Array:
		return v.Len() > 0 && perturb(v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if perturb(settable(v.Field(i))) {
				return true
			}
		}
		return false
	default:
		return false
	}
	return true
}

// stateFixture returns a frozen window-start snapshot with warm pipeline
// and caches, and a delta checkpoint a fork of it reached 2000 cycles on.
func stateFixture(t *testing.T) (*System, *Delta) {
	t.Helper()
	spec, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	pre := config.Fast()
	base, err := New(img, pre.CPU, pre.Hier, pre.MemLatency)
	if err != nil {
		t.Fatal(err)
	}
	base.RunUntilCycle(1500)
	walker := base.Fork()
	walker.RunUntilCycle(3500)
	if walker.CPU.Done() {
		t.Fatal("fixture program ended before the checkpoint")
	}
	return base, walker.CaptureDelta(nil)
}

// TestMatchesDeltaCoversEveryField proves the convergence check compares
// every field of the state structures except the listed exclusions.
func TestMatchesDeltaCoversEveryField(t *testing.T) {
	base, d := stateFixture(t)
	seen := map[string]bool{}
	for _, st := range stateStructs {
		typ := st.of(base).Type()
		for i := 0; i < typ.NumField(); i++ {
			key := st.name + "." + typ.Field(i).Name
			seen[key] = true
			if _, ok := convergenceExclusions[key]; ok {
				continue
			}
			s := base.ForkAt(d)
			if !s.MatchesDelta(d) {
				t.Fatalf("a fork made at the checkpoint does not match it")
			}
			f := settable(st.of(s).Field(i))
			if p, ok := customPerturb[key]; ok {
				p(s, d, f)
			} else if !perturb(f) {
				t.Errorf("%s cannot be perturbed generically: compare it with a custom perturbation or exclude it", key)
				continue
			}
			if s.MatchesDelta(d) {
				t.Errorf("%s is neither compared by the convergence check nor listed in convergenceExclusions", key)
			}
		}
	}
	for key := range convergenceExclusions {
		if !seen[key] {
			t.Errorf("convergenceExclusions names %s, which is not a field", key)
		}
	}
	for key := range customPerturb {
		if !seen[key] {
			t.Errorf("customPerturb names %s, which is not a field", key)
		}
	}

	// The exclusions really are ignored: statistics and hooks never block
	// a match.
	s := base.ForkAt(d)
	s.CPU.Stats.Insts++
	s.CPU.Stats.Mispredicts++
	s.Hier.L2.Stats.Hits++
	s.CPU.CommitHook = func(cpu.CommitRec) {}
	if !s.MatchesDelta(d) {
		t.Error("statistics or hooks block a match")
	}
}

// TestForkAtResetReturnsToCheckpoint pins the scratch contract: a fork
// made at a delta checkpoint matches it, diverges when stepped, and Reset
// returns it to exactly the checkpoint, run after run.
func TestForkAtResetReturnsToCheckpoint(t *testing.T) {
	base, d := stateFixture(t)
	s := base.ForkAt(d)
	for run := 0; run < 3; run++ {
		if !s.MatchesDelta(d) {
			t.Fatalf("run %d: fork does not sit at the checkpoint", run)
		}
		s.CPU.PRF().Flip(uint64(64*run + 3))
		s.RunUntilCycle(d.Cycle() + 500)
		if s.MatchesDelta(d) {
			t.Fatalf("run %d: stepped fork still matches the checkpoint", run)
		}
		s.Reset()
	}
}
