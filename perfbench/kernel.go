package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"marvel/internal/config"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/workloads"
)

// isaNames are the three ISAs in the paper's figure order.
var isaNames = []string{"arm", "x86", "riscv"}

// goldenBudget bounds a golden run, as the marvel facade does.
const goldenBudget = 500_000_000

// kernelProg is one compiled (ISA, workload) pair of the kernel workload.
type kernelProg struct {
	isa, workload string
	img           *program.Image
}

// runKernel measures the cycle kernel alone: fault-free golden runs of
// all fifteen workloads on all three ISAs, on the Table II preset, with
// empty caches each time. One pass runs all 45 in a seeded order.
func runKernel(b *bench) error {
	refs := map[string][]byte{}
	for _, ws := range workloads.All() {
		refs[ws.Name] = ws.Ref()
	}
	var progs []kernelProg
	if err := b.setupRounds(func() error {
		var err error
		progs, err = compileAll(b.tr)
		return err
	}); err != nil {
		return err
	}
	if b.traced {
		b.set("program.compile_s", "s", b.tr.selfSeconds("program.Compile")/float64(b.size.SetupRounds))
	}
	pre := config.TableII()
	rng := rand.New(rand.NewSource(b.seed))
	perISA := map[string]*[2]float64{} // cycles, seconds of traced passes
	for _, name := range isaNames {
		perISA[name] = &[2]float64{}
	}
	var tracedCycles, nAllocs, nBytes float64
	tracedPasses := 0
	_, err := b.timed(func(traced bool) (pass, error) {
		var p pass
		tr := b.tr
		if !traced {
			tr = nil
		}
		root := tr.begin("kernel.pass", "", 0)
		defer tr.end(root)
		for _, i := range rng.Perm(len(progs)) {
			kp := progs[i]
			key := kp.isa + "/" + kp.workload
			b.attempted++
			var a0, ab0 uint64
			if traced {
				a0, ab0 = allocs()
			}
			t0 := time.Now()
			sp := tr.begin("soc.New", key, root)
			sys, err := soc.New(kp.img, pre.CPU, pre.Hier, pre.MemLatency)
			tr.end(sp)
			if err != nil {
				return p, fmt.Errorf("soc.New %s: %w", key, err)
			}
			sp = tr.begin("soc.System.Run", key, root)
			res := sys.Run(goldenBudget)
			tr.end(sp)
			dt := time.Since(t0).Seconds()
			if traced {
				a1, ab1 := allocs()
				nAllocs += float64(a1 - a0)
				nBytes += float64(ab1 - ab0)
				perISA[kp.isa][0] += float64(res.Cycles)
				perISA[kp.isa][1] += dt
				tracedCycles += float64(res.Cycles)
			}
			p.ops++
			p.cycles += res.Cycles
			p.seconds += dt
			if res.Status != soc.RunCompleted {
				b.fail("golden %s ended %v", key, res.Status)
				continue
			}
			if !bytes.Equal(res.Output, refs[kp.workload]) {
				b.fail("golden %s output differs from the pure-Go reference", key)
				continue
			}
			b.checkGolden(key, goldenRef{Cycles: res.Cycles, Insts: res.Stats.Insts})
		}
		if traced {
			tracedPasses++
			b.set("soc.golden_cycles", "cycles", float64(p.cycles))
		}
		return p, nil
	})
	if err != nil || !b.traced {
		return err
	}
	for _, name := range isaNames {
		b.set("soc.sim_cycles_per_s."+name, "cycles/s", perISA[name][0]/perISA[name][1])
	}
	b.set("soc.new_s", "s", b.tr.selfSeconds("soc.New")/float64(tracedPasses))
	b.set("soc.allocs_per_cycle", "allocs/cycle", nAllocs/tracedCycles)
	b.set("soc.alloc_bytes_per_cycle", "B/cycle", nBytes/tracedCycles)
	return nil
}

// compileAll compiles every workload for every ISA through
// program.Compile, as the marvel facade does before a golden run.
func compileAll(tr *tracer) ([]kernelProg, error) {
	var out []kernelProg
	for _, isaName := range isaNames {
		a, err := isa.ByName(isaName)
		if err != nil {
			return nil, err
		}
		for _, ws := range workloads.All() {
			sp := tr.begin("program.Compile", isaName+"/"+ws.Name, 0)
			img, err := program.Compile(a, ws.Build())
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("compile %s/%s: %w", isaName, ws.Name, err)
			}
			out = append(out, kernelProg{isa: isaName, workload: ws.Name, img: img})
		}
	}
	return out, nil
}
