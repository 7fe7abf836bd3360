package accel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"marvel/internal/program/ir"
)

// FUConfig constrains the compute unit's parallelism — the design-space
// exploration knob of Figure 17.
type FUConfig struct {
	Adders      int // single-cycle integer units (add/logic/compare/select)
	Multipliers int
	Dividers    int
	MemPorts    int // concurrent SPM/RegBank accesses per cycle
}

// DefaultFUs is a mid-size datapath: accelerators trade silicon for
// parallel ports and units, which is where their speed advantage over the
// general-purpose core comes from.
func DefaultFUs() FUConfig {
	return FUConfig{Adders: 8, Multipliers: 4, Dividers: 1, MemPorts: 4}
}

// Latencies per functional-unit class.
const (
	latAdder = 1
	latMul   = 3
	latDiv   = 8
)

// maxBlockInstrs bounds a basic block's length: in-block instruction
// indices and dependency counts are stored as int16.
const maxBlockInstrs = math.MaxInt16

// engine executes an ir.Program as a dynamic dataflow graph: within a
// basic block, instructions issue out of order as their operands become
// available, bounded by the functional-unit counts; blocks chain through
// terminators. This mirrors gem5-SALAM's LLVM-IR runtime engine (§III-B1).
//
// Scheduling is event-driven: a completing instruction decrements the
// pending-dependency count of each of its users and marks a user ready
// when the count reaches zero, so a cycle touches only the instructions
// that complete or issue in it.
type engine struct {
	prog  *ir.Program
	fus   FUConfig
	banks []*Bank
	vals  []uint64

	// Per-block tables, built once by newEngine and shared by clones:
	// users[b][j] lists the non-terminators of block b that depend on
	// instruction j, ndeps[b][i] counts i's dependencies, and roots[b] is
	// the ready bitset of b's dependency-free non-terminators (block entry
	// is frequent in tight loops, so it copies the bitset rather than
	// scanning ndeps).
	users [][][]int16
	ndeps [][]int16
	roots [][]uint64

	cur int // current block
	// pending[i] counts instruction i's unfinished dependencies; ready
	// has bit i set while i's dependencies are done and it has not yet
	// issued. Both are sized for the program's largest block.
	pending  []int16
	ready    []uint64
	doneCnt  int
	events   []engEvent
	running  bool
	finished bool
	fault    error
	cycle    uint64
}

type engEvent struct {
	cycle uint64
	instr int
	value uint64
	write bool
	dst   ir.Val
}

func newEngine(prog *ir.Program, fus FUConfig, banks []*Bank) (*engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	maxLen := 0
	for bi := range prog.Blocks {
		n := len(prog.Blocks[bi].Instrs)
		if n > maxBlockInstrs {
			return nil, fmt.Errorf("accel: %s block %d has %d instructions, more than %d", prog.Name, bi, n, maxBlockInstrs)
		}
		maxLen = max(maxLen, n)
	}
	e := &engine{
		prog:    prog,
		fus:     fus,
		banks:   banks,
		vals:    make([]uint64, prog.NumVals),
		users:   make([][][]int16, len(prog.Blocks)),
		ndeps:   make([][]int16, len(prog.Blocks)),
		roots:   make([][]uint64, len(prog.Blocks)),
		pending: make([]int16, maxLen),
		ready:   make([]uint64, readyWords(maxLen)),
		// At most one event per non-terminator of the current block.
		events: make([]engEvent, 0, maxLen),
	}
	for bi := range prog.Blocks {
		e.users[bi], e.ndeps[bi], e.roots[bi] = wakeupTables(blockDeps(prog.Blocks[bi].Instrs))
	}
	return e, nil
}

func readyWords(n int) int { return (n + 63) / 64 }

// blockDeps computes a block's intra-block dependencies: deps[i] lists the
// in-block instruction indices i depends on — RAW, WAR and WAW on virtual
// registers, plus conservative memory ordering (a store waits for every
// earlier memory op; a load waits for earlier stores). The terminator
// waits for the whole block.
func blockDeps(instrs []ir.Instr) [][]int16 {
	deps := make([][]int16, len(instrs))
	lastStore := -1
	var memOps []int
	for i := range instrs {
		in := &instrs[i]
		var d []int16
		add := func(j int) {
			for _, x := range d {
				if int(x) == j {
					return
				}
			}
			d = append(d, int16(j))
		}
		reads := [3]ir.Val{in.A, in.B, in.C}
		for j := 0; j < i; j++ {
			pj := &instrs[j]
			if pj.Dst != ir.NoVal {
				for _, r := range reads {
					if r != ir.NoVal && r == pj.Dst {
						add(j) // RAW
					}
				}
				if in.Dst != ir.NoVal && in.Dst == pj.Dst {
					add(j) // WAW
				}
			}
			if in.Dst != ir.NoVal {
				for _, r := range [3]ir.Val{pj.A, pj.B, pj.C} {
					if r != ir.NoVal && r == in.Dst {
						add(j) // WAR
					}
				}
			}
		}
		switch in.Op {
		case ir.OpLoad:
			if lastStore >= 0 {
				add(lastStore)
			}
			memOps = append(memOps, i)
		case ir.OpStore:
			for _, m := range memOps {
				add(m)
			}
			memOps = append(memOps, i)
			lastStore = i
		}
		if in.Op.IsTerm() {
			for j := 0; j < i; j++ {
				add(j)
			}
		}
		deps[i] = d
	}
	return deps
}

// wakeupTables inverts a block's dependency lists for the wakeup
// scheduler. The terminator is left out: it resolves once every other
// instruction is done (doneCnt), not through the ready set.
func wakeupTables(deps [][]int16) (users [][]int16, ndeps []int16, roots []uint64) {
	n := len(deps)
	users = make([][]int16, n)
	ndeps = make([]int16, n)
	roots = make([]uint64, readyWords(n))
	for i, d := range deps {
		ndeps[i] = int16(len(d))
		if i == n-1 {
			break
		}
		for _, j := range d {
			users[j] = append(users[j], int16(i))
		}
		if len(d) == 0 {
			roots[i/64] |= 1 << (i % 64)
		}
	}
	return users, ndeps, roots
}

// start arms the engine at the program entry.
func (e *engine) start() {
	e.cur = e.prog.Entry
	e.running = true
	e.finished = false
	e.fault = nil
	e.cycle = 0
	e.enterBlock(e.cur)
}

func (e *engine) enterBlock(bi int) {
	e.cur = bi
	copy(e.pending, e.ndeps[bi])
	clear(e.ready[copy(e.ready, e.roots[bi]):])
	e.doneCnt = 0
	e.events = e.events[:0]
}

func (e *engine) bankFor(addr uint64, n int) (*Bank, error) {
	for _, b := range e.banks {
		if b.Contains(addr, n) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("accel: access at %#x (%d bytes) outside every bank", addr, n)
}

// tick advances the compute unit one cycle. It returns false once the
// kernel has finished or faulted.
func (e *engine) tick() bool {
	if !e.running {
		return false
	}
	e.cycle++

	// Completions, all applied before any issue: a result never arrives
	// in the cycle it issued, so this cycle's ready set is complete here.
	users := e.users[e.cur]
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.cycle > e.cycle {
			kept = append(kept, ev)
			continue
		}
		if ev.write {
			e.vals[ev.dst] = ev.value
		}
		for _, u := range users[ev.instr] {
			if e.pending[u]--; e.pending[u] == 0 {
				e.ready[u/64] |= 1 << (u % 64)
			}
		}
		e.doneCnt++
	}
	e.events = kept

	instrs := e.prog.Blocks[e.cur].Instrs
	// Terminator handling: when everything else is done, resolve it and
	// keep executing the next block within the same cycle (block-to-block
	// control costs no datapath cycle, as in a pipelined controller). The
	// transition count per cycle is bounded so an empty infinite loop in a
	// kernel still consumes simulated time.
	for hops := 0; e.doneCnt == len(instrs)-1 && hops < 8; hops++ {
		e.resolveTerminator(&instrs[len(instrs)-1])
		if !e.running {
			return false
		}
		instrs = e.prog.Blocks[e.cur].Instrs
	}

	// Issue in program order, which is the functional-unit arbitration:
	// the lowest-indexed ready instructions win the units. A ready bit is
	// cleared only when its instruction gets its unit or port.
	adders, muls, divs, ports := e.fus.Adders, e.fus.Multipliers, e.fus.Dividers, e.fus.MemPorts
	for w, word := range e.ready[:readyWords(len(instrs))] {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			in := &instrs[i]
			lat := latAdder
			switch in.Op {
			case ir.OpMul, ir.OpMulHU:
				if muls == 0 {
					continue
				}
				muls--
				lat = latMul
			case ir.OpDiv, ir.OpDivU, ir.OpRem, ir.OpRemU:
				if divs == 0 {
					continue
				}
				divs--
				lat = latDiv
			case ir.OpLoad, ir.OpStore:
				if ports == 0 {
					continue
				}
				ports--
				e.ready[w] &^= 1 << (i % 64)
				if !e.issueMem(i, in) {
					return false
				}
				continue
			case ir.OpCheckpoint, ir.OpSwitchCPU, ir.OpWFI:
				e.ready[w] &^= 1 << (i % 64)
				e.events = append(e.events, engEvent{cycle: e.cycle + 1, instr: i})
				continue
			default:
				if adders == 0 {
					continue
				}
				adders--
			}
			e.ready[w] &^= 1 << (i % 64)
			e.issueALU(i, in, lat)
		}
	}
	return e.running
}

func (e *engine) issueALU(i int, in *ir.Instr, lat int) {
	var v uint64
	switch in.Op {
	case ir.OpConst:
		v = uint64(in.Imm)
	case ir.OpMov:
		v = e.vals[in.A]
	case ir.OpSelect:
		if e.vals[in.A] != 0 {
			v = e.vals[in.B]
		} else {
			v = e.vals[in.C]
		}
	default:
		a := e.vals[in.A]
		bv := uint64(in.Imm)
		if in.B != ir.NoVal {
			bv = e.vals[in.B]
		}
		v = ir.EvalBinary(in.Op, a, bv)
	}
	e.events = append(e.events, engEvent{
		cycle: e.cycle + uint64(lat), instr: i,
		write: in.Dst != ir.NoVal, dst: in.Dst, value: v,
	})
}

func (e *engine) issueMem(i int, in *ir.Instr) bool {
	addr := e.vals[in.A] + uint64(in.Imm)
	bank, err := e.bankFor(addr, int(in.Size))
	if err != nil {
		e.fault = err
		e.running = false
		return false
	}
	if in.Op == ir.OpStore {
		var buf [8]byte
		v := e.vals[in.B]
		for k := 0; k < int(in.Size); k++ {
			buf[k] = byte(v >> (8 * k))
		}
		if err := bank.Write(addr, buf[:in.Size]); err != nil {
			e.fault = err
			e.running = false
			return false
		}
		e.events = append(e.events, engEvent{cycle: e.cycle + uint64(bank.Latency()), instr: i})
		return true
	}
	var buf [8]byte
	if err := bank.Read(addr, buf[:in.Size]); err != nil {
		e.fault = err
		e.running = false
		return false
	}
	var v uint64
	for k := 0; k < int(in.Size); k++ {
		v |= uint64(buf[k]) << (8 * k)
	}
	v = extendLoad(v, in.Size, in.Signed)
	e.events = append(e.events, engEvent{
		cycle: e.cycle + uint64(bank.Latency()), instr: i,
		write: in.Dst != ir.NoVal, dst: in.Dst, value: v,
	})
	return true
}

func extendLoad(v uint64, size uint8, signed bool) uint64 {
	switch size {
	case 1:
		if signed {
			return uint64(int64(int8(v)))
		}
		return v & 0xFF
	case 2:
		if signed {
			return uint64(int64(int16(v)))
		}
		return v & 0xFFFF
	case 4:
		if signed {
			return uint64(int64(int32(v)))
		}
		return v & 0xFFFFFFFF
	}
	return v
}

func (e *engine) resolveTerminator(in *ir.Instr) {
	switch in.Op {
	case ir.OpHalt:
		e.running = false
		e.finished = true
	case ir.OpBr:
		e.enterBlock(in.Then)
	case ir.OpBrIf:
		if e.vals[in.A] != 0 {
			e.enterBlock(in.Then)
		} else {
			e.enterBlock(in.Else)
		}
	default:
		e.fault = fmt.Errorf("accel: bad terminator %v", in.Op)
		e.running = false
	}
}

// clone deep-copies engine state (same immutable prog and tables),
// keeping the scratch capacity so the copy never grows on the run path.
func (e *engine) clone(banks []*Bank) *engine {
	n := *e
	n.banks = banks
	n.vals = slices.Clone(e.vals)
	n.pending = slices.Clone(e.pending)
	n.ready = slices.Clone(e.ready)
	n.events = append(make([]engEvent, 0, cap(e.events)), e.events...)
	return &n
}

// resetTo rolls engine state back to the golden engine g it was cloned
// from (same immutable prog and tables), reusing the existing slices.
func (e *engine) resetTo(g *engine) {
	copy(e.vals, g.vals)
	e.cur = g.cur
	copy(e.pending, g.pending)
	copy(e.ready, g.ready)
	e.doneCnt = g.doneCnt
	e.events = append(e.events[:0], g.events...)
	e.running = g.running
	e.finished = g.finished
	e.fault = g.fault
	e.cycle = g.cycle
}
