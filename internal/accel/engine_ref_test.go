package accel

import (
	"fmt"
	"slices"

	"marvel/internal/program/ir"
)

// scanEngine is the scheduler the wakeup scheduler replaced, kept as a
// test-only reference: every cycle it walks the whole current block and
// re-checks each unissued instruction's dependency list. It drives an
// ordinary engine's state (values, events, block, cycle) through its own
// issued/done bookkeeping and never reads the wakeup tables.
type scanEngine struct {
	e      *engine
	deps   [][][]int16
	issued []bool
	done   []bool
}

func newScanEngine(e *engine) *scanEngine {
	s := &scanEngine{e: e, deps: make([][][]int16, len(e.prog.Blocks))}
	for bi := range e.prog.Blocks {
		s.deps[bi] = blockDeps(e.prog.Blocks[bi].Instrs)
	}
	return s
}

func (s *scanEngine) enterBlock(bi int) {
	n := len(s.e.prog.Blocks[bi].Instrs)
	s.e.cur = bi
	s.issued = make([]bool, n)
	s.done = make([]bool, n)
	s.e.doneCnt = 0
	s.e.events = s.e.events[:0]
}

func (s *scanEngine) tick() bool {
	e := s.e
	if !e.running {
		return false
	}
	e.cycle++

	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.cycle > e.cycle {
			kept = append(kept, ev)
			continue
		}
		if ev.write {
			e.vals[ev.dst] = ev.value
		}
		s.done[ev.instr] = true
		e.doneCnt++
	}
	e.events = kept

	instrs := e.prog.Blocks[e.cur].Instrs
	for hops := 0; e.doneCnt == len(instrs)-1 && !s.issued[len(instrs)-1] && hops < 8; hops++ {
		s.resolveTerminator(&instrs[len(instrs)-1])
		if !e.running {
			return false
		}
		instrs = e.prog.Blocks[e.cur].Instrs
	}

	adders, muls, divs, ports := e.fus.Adders, e.fus.Multipliers, e.fus.Dividers, e.fus.MemPorts
	for i := range instrs {
		in := &instrs[i]
		if s.issued[i] || in.Op.IsTerm() {
			continue
		}
		if !s.ready(i) {
			continue
		}
		switch in.Op {
		case ir.OpMul, ir.OpMulHU:
			if muls == 0 {
				continue
			}
			muls--
			s.issued[i] = true
			e.issueALU(i, in, latMul)
		case ir.OpDiv, ir.OpDivU, ir.OpRem, ir.OpRemU:
			if divs == 0 {
				continue
			}
			divs--
			s.issued[i] = true
			e.issueALU(i, in, latDiv)
		case ir.OpLoad, ir.OpStore:
			if ports == 0 {
				continue
			}
			ports--
			s.issued[i] = true
			if !e.issueMem(i, in) {
				return false
			}
		case ir.OpCheckpoint, ir.OpSwitchCPU, ir.OpWFI:
			s.issued[i] = true
			e.events = append(e.events, engEvent{cycle: e.cycle + 1, instr: i})
		default:
			if adders == 0 {
				continue
			}
			adders--
			s.issued[i] = true
			e.issueALU(i, in, latAdder)
		}
	}
	return e.running
}

func (s *scanEngine) ready(i int) bool {
	for _, d := range s.deps[s.e.cur][i] {
		if !s.done[d] {
			return false
		}
	}
	return true
}

func (s *scanEngine) resolveTerminator(in *ir.Instr) {
	e := s.e
	switch in.Op {
	case ir.OpHalt:
		e.running = false
		e.finished = true
	case ir.OpBr:
		s.enterBlock(in.Then)
	case ir.OpBrIf:
		if e.vals[in.A] != 0 {
			s.enterBlock(in.Then)
		} else {
			s.enterBlock(in.Else)
		}
	default:
		e.fault = fmt.Errorf("accel: bad terminator %v", in.Op)
		e.running = false
	}
}

// SchedulerLockstep runs one task on two harnesses cycle by cycle: one
// on the production wakeup scheduler, one on the scan reference. Both are
// forks of pristine harnesses, reset before every run.
type SchedulerLockstep struct {
	wake, scan *Standalone
	ref        *scanEngine
	started    bool     // the reference entered a block in this run
	want       []uint64 // scratch: the ready set recomputed by scan
}

// NewSchedulerLockstep builds the two harnesses for d and task.
func NewSchedulerLockstep(d *Design, task Task) (*SchedulerLockstep, error) {
	a, err := NewStandalone(d, task)
	if err != nil {
		return nil, err
	}
	b, err := NewStandalone(d, task)
	if err != nil {
		return nil, err
	}
	l := &SchedulerLockstep{wake: a.Fork(), scan: b.Fork()}
	l.ref = newScanEngine(l.scan.Cluster.eng)
	l.want = make([]uint64, len(l.wake.Cluster.eng.ready))
	return l, nil
}

// Run resets both harnesses, lets arm schedule faults on each cluster
// (arm may be nil), starts the task and ticks both until the wakeup side
// is done or reaches budget. After every Tick it compares the two
// engines and checks the wakeup scheduler's ready set and pending counts
// against the reference's scan. It returns the first divergence.
func (l *SchedulerLockstep) Run(budget uint64, arm func(*Cluster)) error {
	for _, s := range []*Standalone{l.wake, l.scan} {
		s.Reset()
		if arm != nil {
			arm(s.Cluster)
		}
	}
	l.started = false
	l.wake.Cluster.Start()
	l.scan.Cluster.Start()
	l.enteredCompute()
	if err := l.compare(); err != nil {
		return fmt.Errorf("after Start: %w", err)
	}
	for !l.wake.Cluster.Done() && l.wake.Cluster.Cycle() < budget {
		l.wake.Cluster.Tick()
		l.scanTick()
		if err := l.compare(); err != nil {
			return fmt.Errorf("cycle %d: %w", l.wake.Cluster.Cycle(), err)
		}
	}
	return nil
}

// scanTick is Cluster.Tick with the compute phase driven by the scan
// reference instead of the production scheduler.
func (l *SchedulerLockstep) scanTick() {
	c := l.scan.Cluster
	if c.ph != phCompute {
		c.Tick()
		l.enteredCompute()
		return
	}
	c.cycle++
	c.applyFlips()
	if !l.ref.tick() {
		c.endCompute()
	}
}

// enteredCompute mirrors engine.start's block entry into the reference
// once the scan-side cluster has started its engine.
func (l *SchedulerLockstep) enteredCompute() {
	if !l.started && l.scan.Cluster.ph == phCompute {
		l.ref.enterBlock(l.scan.Cluster.eng.cur)
		l.started = true
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (l *SchedulerLockstep) compare() error {
	wc, sc := l.wake.Cluster, l.scan.Cluster
	if wc.cycle != sc.cycle || wc.ph != sc.ph || errString(wc.fault) != errString(sc.fault) {
		return fmt.Errorf("cluster: cycle %d/%d phase %v/%v fault %v/%v", wc.cycle, sc.cycle, wc.ph, sc.ph, wc.fault, sc.fault)
	}
	w, s := wc.eng, sc.eng
	switch {
	case !slices.Equal(w.vals, s.vals):
		return fmt.Errorf("vals differ")
	case !slices.Equal(w.events, s.events):
		return fmt.Errorf("events %v, reference %v", w.events, s.events)
	case w.doneCnt != s.doneCnt:
		return fmt.Errorf("doneCnt %d, reference %d", w.doneCnt, s.doneCnt)
	case w.cur != s.cur:
		return fmt.Errorf("block %d, reference %d", w.cur, s.cur)
	case w.cycle != s.cycle:
		return fmt.Errorf("engine cycle %d, reference %d", w.cycle, s.cycle)
	case w.running != s.running || w.finished != s.finished:
		return fmt.Errorf("running/finished %v/%v, reference %v/%v", w.running, w.finished, s.running, s.finished)
	case errString(w.fault) != errString(s.fault):
		return fmt.Errorf("engine fault %v, reference %v", w.fault, s.fault)
	}
	if !l.started {
		return nil
	}
	// The ready set must be exactly the unissued non-terminators whose
	// dependencies are all done, and each pending count the number of
	// unfinished dependencies, both recomputed by scan. An issued
	// instruction had all its dependencies done when it issued.
	n := len(w.prog.Blocks[w.cur].Instrs)
	clear(l.want)
	for i := 0; i < n-1; i++ {
		left := 0
		if !l.ref.issued[i] {
			for _, d := range l.ref.deps[w.cur][i] {
				if !l.ref.done[d] {
					left++
				}
			}
			if left == 0 {
				l.want[i/64] |= 1 << (i % 64)
			}
		}
		if int(w.pending[i]) != left {
			return fmt.Errorf("block %d instr %d: pending %d, scan counts %d", w.cur, i, w.pending[i], left)
		}
	}
	if !slices.Equal(w.ready, l.want) {
		return fmt.Errorf("block %d: ready %x, scan computes %x", w.cur, w.ready, l.want)
	}
	return nil
}
