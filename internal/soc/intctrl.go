package soc

import (
	"slices"

	"marvel/internal/isa"
)

// IntCtrl is the interrupt-controller abstraction behind which the SoC
// hides the ISA-specific controller, mirroring the paper's port of
// gem5-SALAM from the Arm GIC to the RISC-V PLIC (§III-C): accelerator
// completion lines enter the controller, which presents a single pending
// signal to the core.
type IntCtrl interface {
	// Name identifies the controller model ("gic" or "plic").
	Name() string
	// Set drives input interrupt line n.
	Set(line int, level bool)
	// Pending reports whether any enabled line is raised.
	Pending() bool
	// Clone deep-copies controller state.
	Clone() IntCtrl
	// Equal reports whether o is the same model in the same state.
	Equal(o IntCtrl) bool
}

// NewIntCtrl picks the controller the ISA's platform uses: the GIC for the
// Arm (and our x86) platforms, the PLIC for RISC-V.
func NewIntCtrl(a isa.Arch) IntCtrl {
	if a.Traits().InterruptCtrl == "plic" {
		return NewPLIC(8)
	}
	return NewGIC(8)
}

// GIC models the distributor/CPU-interface split of the Arm Generic
// Interrupt Controller at the level of detail the SoC needs: per-line
// enable and level state, with a group priority mask.
type GIC struct {
	lines   []bool
	enabled []bool
}

// NewGIC creates a GIC with n interrupt lines, all enabled.
func NewGIC(n int) *GIC {
	g := &GIC{lines: make([]bool, n), enabled: make([]bool, n)}
	for i := range g.enabled {
		g.enabled[i] = true
	}
	return g
}

// Name implements IntCtrl.
func (g *GIC) Name() string { return "gic" }

// Set implements IntCtrl.
func (g *GIC) Set(line int, level bool) {
	if line >= 0 && line < len(g.lines) {
		g.lines[line] = level
	}
}

// Enable controls line routing to the CPU interface.
func (g *GIC) Enable(line int, on bool) {
	if line >= 0 && line < len(g.enabled) {
		g.enabled[line] = on
	}
}

// Pending implements IntCtrl.
func (g *GIC) Pending() bool {
	for i, l := range g.lines {
		if l && g.enabled[i] {
			return true
		}
	}
	return false
}

// Equal implements IntCtrl.
func (g *GIC) Equal(o IntCtrl) bool {
	h, ok := o.(*GIC)
	return ok && slices.Equal(g.lines, h.lines) && slices.Equal(g.enabled, h.enabled)
}

// Clone implements IntCtrl.
func (g *GIC) Clone() IntCtrl {
	return &GIC{
		lines:   append([]bool(nil), g.lines...),
		enabled: append([]bool(nil), g.enabled...),
	}
}

// PLIC models the RISC-V Platform-Level Interrupt Controller: per-source
// priority, a hart threshold, and claim/complete gating.
type PLIC struct {
	lines     []bool
	priority  []uint8
	threshold uint8
	claimed   int // claimed source; -1 when none
}

// NewPLIC creates a PLIC with n sources at priority 1, threshold 0.
func NewPLIC(n int) *PLIC {
	p := &PLIC{lines: make([]bool, n), priority: make([]uint8, n), claimed: -1}
	for i := range p.priority {
		p.priority[i] = 1
	}
	return p
}

// Name implements IntCtrl.
func (p *PLIC) Name() string { return "plic" }

// Set implements IntCtrl.
func (p *PLIC) Set(line int, level bool) {
	if line >= 0 && line < len(p.lines) {
		p.lines[line] = level
	}
}

// SetPriority configures a source's priority (0 disables it).
func (p *PLIC) SetPriority(line int, prio uint8) {
	if line >= 0 && line < len(p.priority) {
		p.priority[line] = prio
	}
}

// SetThreshold configures the hart's priority threshold.
func (p *PLIC) SetThreshold(t uint8) { p.threshold = t }

// Pending implements IntCtrl: a source is visible when raised, above the
// threshold, and not currently claimed.
func (p *PLIC) Pending() bool {
	for i, l := range p.lines {
		if l && p.priority[i] > p.threshold && p.claimed != i {
			return true
		}
	}
	return false
}

// Claim returns the highest-priority pending source and masks it until
// Complete, following the PLIC's claim/complete protocol. Returns -1 when
// nothing is pending.
func (p *PLIC) Claim() int {
	best, bestPrio := -1, uint8(0)
	for i, l := range p.lines {
		if l && p.priority[i] > p.threshold && p.priority[i] > bestPrio {
			best, bestPrio = i, p.priority[i]
		}
	}
	if best >= 0 {
		p.claimed = best
	}
	return best
}

// Complete finishes servicing the claimed source.
func (p *PLIC) Complete(line int) {
	if p.claimed == line {
		p.claimed = -1
	}
}

// Equal implements IntCtrl.
func (p *PLIC) Equal(o IntCtrl) bool {
	q, ok := o.(*PLIC)
	return ok && slices.Equal(p.lines, q.lines) && slices.Equal(p.priority, q.priority) &&
		p.threshold == q.threshold && p.claimed == q.claimed
}

// Clone implements IntCtrl.
func (p *PLIC) Clone() IntCtrl {
	return &PLIC{
		lines:     append([]bool(nil), p.lines...),
		priority:  append([]uint8(nil), p.priority...),
		threshold: p.threshold,
		claimed:   p.claimed,
	}
}
