package cpu

import (
	"slices"

	"marvel/internal/core"
)

// PReg is a physical register index.
type PReg uint16

// NoPReg marks an unused physical register slot.
const NoPReg PReg = 0xFFFF

type prfStuck struct {
	reg  int
	mask uint64
	val  uint64
}

// PhysRegFile is the integer physical register file: values, ready bits and
// free bits. It is the paper's primary CPU injection target (Figures 4, 9,
// 15, 18). The injection space is the value storage: NumRegs × 64 bits.
type PhysRegFile struct {
	vals  []uint64
	ready []bool
	free  []bool

	stuck []prfStuck

	watchArmed bool
	watchReg   int
	watchState core.WatchState
}

// NewPhysRegFile creates a PRF with n registers, all free and not ready.
func NewPhysRegFile(n int) *PhysRegFile {
	p := &PhysRegFile{
		vals:  make([]uint64, n),
		ready: make([]bool, n),
		free:  make([]bool, n),
	}
	for i := range p.free {
		p.free[i] = true
	}
	return p
}

// Len returns the number of physical registers.
func (p *PhysRegFile) Len() int { return len(p.vals) }

// Read returns the value of r, recording the read for watch monitoring.
func (p *PhysRegFile) Read(r PReg) uint64 {
	if p.watchArmed && p.watchState == core.WatchPending && int(r) == p.watchReg {
		p.watchState = core.WatchRead
	}
	return p.vals[r]
}

// Write sets the value of r and marks it ready; stuck-at faults are
// re-applied so they survive every write.
func (p *PhysRegFile) Write(r PReg, v uint64) {
	if p.watchArmed && p.watchState == core.WatchPending && int(r) == p.watchReg {
		p.watchState = core.WatchDead
	}
	for _, s := range p.stuck {
		if s.reg == int(r) {
			v = v&^s.mask | s.val
		}
	}
	p.vals[r] = v
	p.ready[r] = true
}

// Ready reports whether r holds a produced value.
func (p *PhysRegFile) Ready(r PReg) bool { return p.ready[r] }

// Allocate marks r allocated and pending (not ready).
func (p *PhysRegFile) Allocate(r PReg) {
	p.free[r] = false
	p.ready[r] = false
}

// Free returns r to the free pool.
func (p *PhysRegFile) Free(r PReg) {
	if p.watchArmed && p.watchState == core.WatchPending && int(r) == p.watchReg {
		// A freed register can only influence the run again after being
		// re-allocated and re-written, which overwrites the fault.
		p.watchState = core.WatchDead
	}
	p.free[r] = true
	p.ready[r] = false
}

// SetInitial writes a value without touching watch state (machine setup).
func (p *PhysRegFile) SetInitial(r PReg, v uint64) {
	p.vals[r] = v
	p.ready[r] = true
	p.free[r] = false
}

// ResetTo restores p to g's state without allocating, reusing p's backing
// arrays (checkpoint-fork reuse across faulty runs).
func (p *PhysRegFile) ResetTo(g *PhysRegFile) {
	copy(p.vals, g.vals)
	copy(p.ready, g.ready)
	copy(p.free, g.free)
	p.stuck = append(p.stuck[:0], g.stuck...)
	p.watchArmed = g.watchArmed
	p.watchReg = g.watchReg
	p.watchState = g.watchState
}

// SameState reports whether p and g hold the same values, ready and free
// bits, stuck bits and watch.
func (p *PhysRegFile) SameState(g *PhysRegFile) bool {
	return slices.Equal(p.vals, g.vals) && slices.Equal(p.ready, g.ready) && slices.Equal(p.free, g.free) &&
		slices.Equal(p.stuck, g.stuck) && p.watchArmed == g.watchArmed && p.watchReg == g.watchReg &&
		p.watchState == g.watchState
}

// Clone deep-copies the register file.
func (p *PhysRegFile) Clone() *PhysRegFile {
	n := &PhysRegFile{
		vals:       append([]uint64(nil), p.vals...),
		ready:      append([]bool(nil), p.ready...),
		free:       append([]bool(nil), p.free...),
		stuck:      append([]prfStuck(nil), p.stuck...),
		watchArmed: p.watchArmed,
		watchReg:   p.watchReg,
		watchState: p.watchState,
	}
	return n
}

// --- core.Target implementation ---

// TargetName implements core.Target.
func (p *PhysRegFile) TargetName() string { return "prf" }

// BitLen implements core.Target.
func (p *PhysRegFile) BitLen() uint64 { return uint64(len(p.vals)) * 64 }

// Live implements core.Target: the register is currently allocated.
func (p *PhysRegFile) Live(bit uint64) bool { return !p.free[bit/64] }

// Flip implements core.Target.
func (p *PhysRegFile) Flip(bit uint64) {
	p.vals[bit/64] ^= 1 << (bit % 64)
}

// Stick implements core.Target.
func (p *PhysRegFile) Stick(bit uint64, v uint8) {
	s := prfStuck{reg: int(bit / 64), mask: 1 << (bit % 64)}
	if v != 0 {
		s.val = s.mask
	}
	p.stuck = append(p.stuck, s)
	p.vals[s.reg] = p.vals[s.reg]&^s.mask | s.val
}

// Watch implements core.Target.
func (p *PhysRegFile) Watch(bit uint64) {
	p.watchArmed = true
	p.watchReg = int(bit / 64)
	p.watchState = core.WatchPending
}

// WatchState implements core.Target.
func (p *PhysRegFile) WatchState() core.WatchState { return p.watchState }

var _ core.Target = (*PhysRegFile)(nil)
