// Package mem models the memory system of the simulated SoC: a flat main
// memory, set-associative write-back caches with tree-PLRU replacement
// (the replacement policy gem5 documents and the paper's validation program
// warms up against), a three-level hierarchy (split L1I/L1D over a unified
// L2), and a physical-address bus with memory-mapped I/O ranges for
// accelerator registers.
//
// The cache data arrays implement core.Target, so transient and permanent
// faults land in the very bytes the pipeline fetches and loads.
package mem

import (
	"bytes"
	"fmt"
	"slices"
)

// AccessError reports an access outside any mapped range — architecturally
// a bus error, classified as a Crash by the fault-effect analysis.
type AccessError struct {
	Addr  uint64
	Write bool
}

func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("mem: %s fault at %#x", op, e.Addr)
}

// CoW page geometry. Pages are the unit of sharing between a golden
// memory snapshot and the faulty runs forked from it.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// CoWStats counts copy-on-write activity on a forked memory.
type CoWStats struct {
	// PagesCopied is the number of page materializations (first write to a
	// clean page since the last Reset).
	PagesCopied uint64
	// Resets is the number of dirty-page rollbacks to the golden image.
	Resets uint64
}

// Memory is the backing store for a contiguous physical range. It runs in
// one of two modes: a flat mode holding its own bytes (golden systems),
// and a copy-on-write mode produced by Fork, where reads are served from a
// shared read-only golden image and writes materialize private pages.
type Memory struct {
	base    uint64
	size    int
	latency int

	// Flat mode.
	data []byte

	// CoW mode (golden != nil): pages[p] is consulted only while
	// pageDirty[p] is set; Reset clears the dirty bits without freeing the
	// page buffers, so reuse across faulty runs allocates nothing. A fork
	// made by ForkAt also reads through overlay, the delta checkpoint's
	// page copies (nil entries fall through to golden), which stays in
	// place across Reset.
	golden    []byte
	at        *MemDelta
	overlay   [][]byte
	pages     [][]byte
	pageDirty []bool
	dirtyList []int
	cow       CoWStats
}

// NewMemory creates size bytes of memory starting at base with the given
// access latency in cycles.
func NewMemory(base uint64, size int, latency int) *Memory {
	return &Memory{base: base, size: size, data: make([]byte, size), latency: latency}
}

// Base returns the first mapped address.
func (m *Memory) Base() uint64 { return m.base }

// Size returns the mapped length in bytes.
func (m *Memory) Size() int { return m.size }

// Latency returns the fixed access latency in cycles.
func (m *Memory) Latency() int { return m.latency }

// Contains reports whether [addr, addr+n) is fully inside the memory.
func (m *Memory) Contains(addr uint64, n int) bool {
	return addr >= m.base && addr-m.base+uint64(n) <= uint64(m.size)
}

// Read copies len(buf) bytes from addr.
func (m *Memory) Read(addr uint64, buf []byte) error {
	if !m.Contains(addr, len(buf)) {
		return &AccessError{Addr: addr}
	}
	off := addr - m.base
	if m.golden == nil {
		copy(buf, m.data[off:])
		return nil
	}
	for len(buf) > 0 {
		p := int(off >> pageShift)
		po := int(off & (pageSize - 1))
		n := pageSize - po
		if n > len(buf) {
			n = len(buf)
		}
		copy(buf[:n], m.page(p)[po:])
		off += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// Write copies data to addr.
func (m *Memory) Write(addr uint64, data []byte) error {
	if !m.Contains(addr, len(data)) {
		return &AccessError{Addr: addr, Write: true}
	}
	off := addr - m.base
	if m.golden == nil {
		copy(m.data[off:], data)
		return nil
	}
	for len(data) > 0 {
		p := int(off >> pageShift)
		po := int(off & (pageSize - 1))
		n := pageSize - po
		if n > len(data) {
			n = len(data)
		}
		if !m.pageDirty[p] {
			m.materialize(p)
		}
		copy(m.pages[p][po:], data[:n])
		off += uint64(n)
		data = data[n:]
	}
	return nil
}

// page returns the current bytes of page p of a forked memory.
func (m *Memory) page(p int) []byte {
	if m.pageDirty[p] {
		return m.pages[p]
	}
	return m.checkpointPage(p)
}

// checkpointPage returns page p as it stood at the fork point: the
// overlay's copy when the fork was made at a delta checkpoint, the golden
// bytes otherwise.
func (m *Memory) checkpointPage(p int) []byte {
	if m.overlay != nil && m.overlay[p] != nil {
		return m.overlay[p]
	}
	return m.goldenPage(p)
}

func (m *Memory) goldenPage(p int) []byte {
	lo := p << pageShift
	return m.golden[lo:min(lo+pageSize, m.size)]
}

// materialize gives page p a private copy of its checkpoint bytes.
func (m *Memory) materialize(p int) {
	src := m.checkpointPage(p)
	if m.pages[p] == nil {
		m.pages[p] = make([]byte, len(src))
	}
	copy(m.pages[p], src)
	m.pageDirty[p] = true
	m.dirtyList = append(m.dirtyList, p)
	m.cow.PagesCopied++
}

// Fork returns a copy-on-write view of the memory: reads come from the
// (now shared, read-only) current image, writes land in private pages.
// Several forks may share one golden image; each must be used by a single
// goroutine. The receiver must not be written to afterwards.
func (m *Memory) Fork() *Memory {
	np := (m.size + pageSize - 1) / pageSize
	return &Memory{
		base:      m.base,
		size:      m.size,
		latency:   m.latency,
		golden:    m.flat(),
		pages:     make([][]byte, np),
		pageDirty: make([]bool, np),
	}
}

// ForkAt is Fork positioned at a delta checkpoint captured from another
// fork of m: reads see m's image with d's pages laid over it, and Reset
// returns to that view. d is shared read-only; nil is a plain Fork.
func (m *Memory) ForkAt(d *MemDelta) *Memory {
	n := m.Fork()
	if d != nil {
		n.at = d
		n.overlay = make([][]byte, len(n.pages))
		for k, p := range d.pages {
			n.overlay[p] = d.data[k]
		}
	}
	return n
}

// Reset rolls a forked memory back to its fork point (the golden image,
// or the delta checkpoint of ForkAt) by dropping every dirty page —
// O(dirty pages), no allocation, no copying. Flat memories ignore it.
func (m *Memory) Reset() {
	if m.golden == nil {
		return
	}
	for _, p := range m.dirtyList {
		m.pageDirty[p] = false
	}
	m.dirtyList = m.dirtyList[:0]
	m.cow.Resets++
}

// CoW returns the fork's copy-on-write counters (zero for flat memories).
func (m *Memory) CoW() CoWStats { return m.cow }

// flat returns the full current image as one contiguous slice; for a flat
// memory this is its own storage (no copy).
func (m *Memory) flat() []byte {
	if m.golden == nil {
		return m.data
	}
	out := append([]byte(nil), m.golden...)
	for _, p := range m.changedPages() {
		copy(out[p<<pageShift:], m.page(p))
	}
	return out
}

// changedPages lists, in ascending order, every page of a forked memory
// that may differ from the golden image: the fork point's delta pages and
// the pages written since.
func (m *Memory) changedPages() []int {
	var ps []int
	if m.at != nil {
		ps = append(ps, m.at.pages...)
	}
	ps = append(ps, m.dirtyList...)
	slices.Sort(ps)
	return slices.Compact(ps)
}

// MemDelta is the memory half of a delta checkpoint: a copy of every page
// a forked memory has changed relative to its golden image, in page
// order. It is immutable once captured and may back any number of forks.
type MemDelta struct {
	pages []int
	data  [][]byte
}

// CaptureDelta copies every page of the forked memory m that differs
// from its golden image. prev, when non-nil, is an earlier capture of the
// same fork: pages still equal to prev's copy share it.
func (m *Memory) CaptureDelta(prev *MemDelta) MemDelta {
	d := MemDelta{pages: m.changedPages()}
	d.data = make([][]byte, len(d.pages))
	j := 0 // cursor into prev.pages; both lists are sorted
	for k, p := range d.pages {
		cur := m.page(p)
		if prev != nil {
			for j < len(prev.pages) && prev.pages[j] < p {
				j++
			}
			if j < len(prev.pages) && prev.pages[j] == p && bytes.Equal(prev.data[j], cur) {
				d.data[k] = prev.data[j]
				continue
			}
		}
		d.data[k] = slices.Clone(cur)
	}
	return d
}

// MatchesDelta reports whether the forked memory m holds exactly the image
// d describes, m's golden image with d's pages laid over it. m and d must
// descend from the same golden image. Only the union of both sides'
// changed pages is compared; every other page is the golden's on both.
func (m *Memory) MatchesDelta(d *MemDelta) bool {
	for k, p := range d.pages {
		if !bytes.Equal(m.page(p), d.data[k]) {
			return false
		}
	}
	differs := func(p int) bool {
		_, inD := slices.BinarySearch(d.pages, p)
		return !inD && !bytes.Equal(m.page(p), m.goldenPage(p))
	}
	for _, p := range m.dirtyList {
		if differs(p) {
			return false
		}
	}
	if m.at != nil {
		for _, p := range m.at.pages {
			if differs(p) {
				return false
			}
		}
	}
	return true
}

// Clone returns an independent flat deep copy for checkpointing (CoW
// forks are flattened).
func (m *Memory) Clone() *Memory {
	c := &Memory{base: m.base, size: m.size, latency: m.latency}
	if m.golden == nil {
		c.data = append([]byte(nil), m.data...)
	} else {
		c.data = m.flat() // flat already returns a fresh copy here
	}
	return c
}

// Handler is a device mapped on the MMIO bus.
type Handler interface {
	// MMIORead fills buf from the device register at addr.
	MMIORead(addr uint64, buf []byte) error
	// MMIOWrite stores data into the device register at addr.
	MMIOWrite(addr uint64, data []byte) error
}

type busRange struct {
	lo, hi uint64
	dev    Handler
}

// Bus routes MMIO accesses to registered device ranges.
type Bus struct {
	ranges  []busRange
	latency int
}

// NewBus creates an MMIO bus with the given fixed access latency.
func NewBus(latency int) *Bus { return &Bus{latency: latency} }

// Latency returns the bus access latency in cycles.
func (b *Bus) Latency() int { return b.latency }

// Map registers dev over [lo, hi). Overlapping ranges are rejected.
func (b *Bus) Map(lo, hi uint64, dev Handler) error {
	if hi <= lo {
		return fmt.Errorf("mem: empty MMIO range [%#x, %#x)", lo, hi)
	}
	for _, r := range b.ranges {
		if lo < r.hi && r.lo < hi {
			return fmt.Errorf("mem: MMIO range [%#x, %#x) overlaps [%#x, %#x)", lo, hi, r.lo, r.hi)
		}
	}
	b.ranges = append(b.ranges, busRange{lo, hi, dev})
	return nil
}

func (b *Bus) find(addr uint64) (Handler, bool) {
	for _, r := range b.ranges {
		if addr >= r.lo && addr < r.hi {
			return r.dev, true
		}
	}
	return nil, false
}

// Read routes an MMIO read.
func (b *Bus) Read(addr uint64, buf []byte) (int, error) {
	dev, ok := b.find(addr)
	if !ok {
		return 0, &AccessError{Addr: addr}
	}
	return b.latency, dev.MMIORead(addr, buf)
}

// Write routes an MMIO write.
func (b *Bus) Write(addr uint64, data []byte) (int, error) {
	dev, ok := b.find(addr)
	if !ok {
		return 0, &AccessError{Addr: addr, Write: true}
	}
	return b.latency, dev.MMIOWrite(addr, data)
}
