// Package soc assembles complete simulated systems: an out-of-order CPU
// with its cache hierarchy over main memory, optionally joined by
// accelerator clusters behind the MMIO bus with a GIC or PLIC interrupt
// controller — the heterogeneous SoC of the paper's Figure 1. It provides
// the deterministic run loop, output extraction, and whole-system
// checkpoint cloning that fault-injection campaigns fork from.
package soc

import (
	"fmt"

	"marvel/internal/cpu"
	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/program"
)

// MMIOBase is the start of the device address window.
const MMIOBase = 0x8000_0000

// RunStatus classifies how a simulation ended.
type RunStatus uint8

const (
	// RunCompleted means the program executed its halt instruction.
	RunCompleted RunStatus = iota
	// RunCrashed means an architectural exception terminated the run.
	RunCrashed
	// RunTimedOut means the cycle budget expired (hang); fault-effect
	// classification folds this into Crash.
	RunTimedOut
)

func (s RunStatus) String() string {
	switch s {
	case RunCompleted:
		return "completed"
	case RunCrashed:
		return "crashed"
	case RunTimedOut:
		return "timed-out"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// RunResult summarizes a simulation.
type RunResult struct {
	Status RunStatus
	Trap   *cpu.Trap
	Cycles uint64
	Output []byte
	Stats  cpu.Stats
}

// Device is a bus-attached component that advances with the system clock
// (accelerator clusters, DMA engines).
type Device interface {
	// Tick advances the device by one cycle.
	Tick()
	// IRQ reports whether the device requests an interrupt.
	IRQ() bool
}

// System is one simulated machine instance.
type System struct {
	CPU  *cpu.CPU
	Hier *mem.Hierarchy
	Mem  *mem.Memory
	Bus  *mem.Bus
	Img  *program.Image

	IntCtrl IntCtrl
	devices []Device

	window

	// CheckpointHook, when set, fires at the checkpoint directive (used by
	// campaigns to snapshot state).
	CheckpointHook func(cycle uint64)

	// golden is the frozen checkpoint this system was forked from (nil
	// for ordinary systems) and at the delta checkpoint ForkAt positioned
	// it at (nil for a plain Fork); Reset rolls back to golden with at
	// applied.
	golden *System
	at     *Delta
}

// window holds the injection-window markers captured from the program's
// magic directives (m5_checkpoint / m5_switch_cpu).
type window struct {
	CheckpointCycle uint64
	SwitchCycle     uint64
	hasCheckpoint   bool
	hasSwitch       bool
}

// New builds a CPU system around a compiled image.
func New(img *program.Image, ccfg cpu.Config, hcfg mem.HierarchyConfig, memLatency int) (*System, error) {
	hcfg.MMIOBase = MMIOBase
	m := mem.NewMemory(0, img.Prog.MemSize, memLatency)
	bus := mem.NewBus(4)
	h, err := mem.NewHierarchy(hcfg, m, bus)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(img.Arch, ccfg, h)
	if err != nil {
		return nil, err
	}
	if err := img.LoadInto(m); err != nil {
		return nil, err
	}
	c.Boot(img.Entry, img.InitialSP, img.SPReg)
	s := &System{CPU: c, Hier: h, Mem: m, Bus: bus, Img: img}
	s.IntCtrl = NewIntCtrl(img.Arch)
	s.hookMagic()
	return s, nil
}

func (s *System) hookMagic() {
	s.CPU.MagicHook = func(sel int64, cycle uint64) {
		switch sel {
		case isa.MagicCheckpoint:
			s.CheckpointCycle, s.hasCheckpoint = cycle, true
			if s.CheckpointHook != nil {
				s.CheckpointHook(cycle)
			}
		case isa.MagicSwitchCPU:
			s.SwitchCycle, s.hasSwitch = cycle, true
		}
	}
}

// AddDevice attaches a clocked device (accelerator cluster).
func (s *System) AddDevice(d Device) { s.devices = append(s.devices, d) }

// HasWindow reports whether the program declared an injection window via
// checkpoint/switch directives, and returns it.
func (s *System) HasWindow() (lo, hi uint64, ok bool) {
	if s.hasCheckpoint && s.hasSwitch {
		return s.CheckpointCycle, s.SwitchCycle, true
	}
	return 0, 0, false
}

// Step advances the whole system by one cycle.
func (s *System) Step() {
	irq := false
	for _, d := range s.devices {
		d.Tick()
		if d.IRQ() {
			irq = true
		}
	}
	if s.IntCtrl != nil {
		s.IntCtrl.Set(0, irq)
		s.CPU.SetIRQ(s.IntCtrl.Pending())
	}
	s.CPU.Step()
}

// Run executes until the program ends or the cycle budget expires, then
// extracts the output region coherently.
func (s *System) Run(budget uint64) RunResult {
	for !s.CPU.Done() && s.CPU.Cycle() < budget {
		s.Step()
	}
	res := RunResult{Cycles: s.CPU.Cycle(), Stats: s.CPU.Stats}
	switch {
	case s.CPU.Halted():
		res.Status = RunCompleted
		res.Output = s.Output()
	case s.CPU.Trap() != nil:
		res.Status = RunCrashed
		res.Trap = s.CPU.Trap()
	default:
		res.Status = RunTimedOut
	}
	return res
}

// RunChecked executes like Run with two early exits. stop, when non-nil,
// is called every `every` cycles and a true return ends the run (the
// campaign's dead-fault early termination): stopped is true and the
// result reflects the state at stop time. probes are delta checkpoints
// in cycle order: when the clock reaches a probe's cycle the system is
// compared with it (MatchesDelta), and a match ends the run with
// converged set to that probe and the result reflecting the state there.
// Probing never shifts stop's polling cadence.
func (s *System) RunChecked(budget uint64, every uint64, stop func() bool, probes []*Delta) (res RunResult, stopped bool, converged *Delta) {
	if every == 0 {
		every = 64
	}
	next := s.CPU.Cycle() + every
	for !s.CPU.Done() && s.CPU.Cycle() < budget {
		for len(probes) > 0 && probes[0].Cycle() <= s.CPU.Cycle() {
			d := probes[0]
			probes = probes[1:]
			if s.MatchesDelta(d) {
				return RunResult{Status: RunTimedOut, Cycles: s.CPU.Cycle(), Stats: s.CPU.Stats}, false, d
			}
		}
		s.Step()
		if s.CPU.Cycle() >= next {
			if stop != nil && stop() {
				return RunResult{Status: RunTimedOut, Cycles: s.CPU.Cycle(), Stats: s.CPU.Stats}, true, nil
			}
			next = s.CPU.Cycle() + every
		}
	}
	res = RunResult{Cycles: s.CPU.Cycle(), Stats: s.CPU.Stats}
	switch {
	case s.CPU.Halted():
		res.Status = RunCompleted
		res.Output = s.Output()
	case s.CPU.Trap() != nil:
		res.Status = RunCrashed
		res.Trap = s.CPU.Trap()
	default:
		res.Status = RunTimedOut
	}
	return res, false, nil
}

// RunUntilCycle advances to the given absolute cycle (used to position a
// system at a fault's injection cycle before applying it).
func (s *System) RunUntilCycle(cycle uint64) {
	for !s.CPU.Done() && s.CPU.Cycle() < cycle {
		s.Step()
	}
}

// Output reads the program's declared output region coherently.
func (s *System) Output() []byte {
	p := s.Img.Prog
	if p.OutLen == 0 {
		return nil
	}
	buf := make([]byte, p.OutLen)
	if err := s.Hier.ReadBack(p.OutBase, buf); err != nil {
		return nil
	}
	return buf
}

// Clone deep-copies the system (microarchitectural and architectural
// state), the checkpoint mechanism campaigns fork faulty runs from.
func (s *System) Clone() *System {
	h := s.Hier.Clone()
	n := &System{CPU: s.CPU.Clone(h), Hier: h, Mem: h.Mem, Bus: s.Bus, Img: s.Img, window: s.window}
	if s.IntCtrl != nil {
		n.IntCtrl = s.IntCtrl.Clone()
	}
	n.hookMagic()
	return n
}

// Fork creates a copy-on-write checkpoint fork of the system: main memory
// pages are shared read-only with s until written, caches journal the
// sets they touch, and the CPU is deep-copied once. A fork is meant to be
// reused across faulty runs via Reset, which rolls it back to s in time
// proportional to the state the previous run dirtied — the §IV-B forking
// speedup. The receiver becomes the frozen golden snapshot and must not
// be stepped afterwards; each fork belongs to a single goroutine, but
// many forks may share one snapshot. Like Clone, Fork does not carry
// attached devices.
func (s *System) Fork() *System { return s.ForkAt(nil) }

// Delta is a delta checkpoint: the state a fork of some golden snapshot
// reached at one cycle, held as a CPU clone plus copies of only the memory
// pages and cache sets the fork changed since the snapshot. It is
// immutable once captured. ForkAt starts new forks of the same snapshot
// from it, and MatchesDelta tests whether another fork has reached exactly
// its state.
type Delta struct {
	cpu     *cpu.CPU
	hier    mem.HierDelta
	intCtrl IntCtrl
	window  window
}

// Cycle returns the cycle the checkpoint was captured at.
func (d *Delta) Cycle() uint64 { return d.cpu.Cycle() }

// CaptureDelta records the forked system's current state as a delta
// checkpoint of its golden snapshot. prev, when non-nil, is an earlier
// capture from the same fork; page and cache-set copies that have not
// changed since are shared with it.
func (s *System) CaptureDelta(prev *Delta) *Delta {
	var ph *mem.HierDelta
	if prev != nil {
		ph = &prev.hier
	}
	d := &Delta{cpu: s.CPU.Clone(nil), hier: s.Hier.CaptureDelta(ph), window: s.window}
	if s.IntCtrl != nil {
		d.intCtrl = s.IntCtrl.Clone()
	}
	return d
}

// ForkAt is Fork positioned at d, a delta checkpoint captured from
// another fork of s: the new fork starts in exactly d's state, and Reset
// returns it there. nil is a plain Fork.
func (s *System) ForkAt(d *Delta) *System {
	var hd *mem.HierDelta
	if d != nil {
		hd = &d.hier
	}
	h := s.Hier.ForkAt(hd)
	n := &System{Hier: h, Mem: h.Mem, Bus: s.Bus, Img: s.Img, golden: s, at: d}
	c, _, _ := n.forkPoint()
	n.CPU = c.Clone(h)
	n.resetTop()
	return n
}

// forkPoint returns the CPU, interrupt controller and window markers a
// forked system resets to.
func (s *System) forkPoint() (*cpu.CPU, IntCtrl, window) {
	if d := s.at; d != nil {
		return d.cpu, d.intCtrl, d.window
	}
	g := s.golden
	return g.CPU, g.IntCtrl, g.window
}

// resetTop restores the system-level state of a fork to its fork point.
func (s *System) resetTop() {
	_, ic, w := s.forkPoint()
	s.window = w
	s.CheckpointHook = nil
	if ic != nil {
		s.IntCtrl = ic.Clone()
	}
	s.hookMagic()
}

// MatchesDelta reports whether the forked system s holds exactly the
// state of d, a delta checkpoint of the same golden snapshot: CPU state
// (SameState), interrupt controller, window markers and the union of both
// sides' changed pages and cache sets. The simulator is deterministic, so
// a match means s's future is d's. Hooks, devices and fork journals are
// not state and are not compared.
func (s *System) MatchesDelta(d *Delta) bool {
	if s.window != d.window || !s.CPU.SameState(d.cpu) {
		return false
	}
	if (s.IntCtrl == nil) != (d.intCtrl == nil) || s.IntCtrl != nil && !s.IntCtrl.Equal(d.intCtrl) {
		return false
	}
	return s.Hier.MatchesDelta(&d.hier)
}

// Forked reports whether the system was created by Fork (and so supports
// Reset).
func (s *System) Forked() bool { return s.golden != nil }

// Reset rolls a forked system back to its fork point, reusing the fork's
// storage: dirty memory pages are dropped, journaled cache sets restored,
// CPU state copied back. After Reset the system is indistinguishable from
// a fresh fork of the same point.
func (s *System) Reset() {
	if s.golden == nil {
		panic("soc: Reset on a system that was not created by Fork")
	}
	s.Hier.Reset()
	c, _, _ := s.forkPoint()
	s.CPU.ResetTo(c)
	s.resetTop()
}

// ForkCounters reports the cumulative copy-on-write work of a forked
// system (zeroes for ordinary systems).
func (s *System) ForkCounters() (pagesCopied, setsRestored uint64) {
	return s.Hier.ForkCounters()
}
