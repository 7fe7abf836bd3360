package mem

import (
	"fmt"
	"slices"

	"marvel/internal/core"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	HitLat    int // access latency on hit, cycles
}

// Validate checks the geometry is a usable power-of-two configuration.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: cache %q has non-positive geometry", c.Name)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets*c.LineBytes*c.Ways != c.SizeBytes {
		return fmt.Errorf("mem: cache %q size %d not divisible by way*line", c.Name, c.SizeBytes)
	}
	if sets&(sets-1) != 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q sets/line size must be powers of two", c.Name)
	}
	if c.Ways&(c.Ways-1) != 0 || c.Ways > 16 {
		return fmt.Errorf("mem: cache %q ways must be a power of two <= 16", c.Name)
	}
	return nil
}

// CacheStats counts cache events for performance reporting.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// level abstracts the next-lower element of the hierarchy (another cache or
// a memory adapter). Addresses passed down are line-aligned.
type level interface {
	readLine(addr uint64, buf []byte) (int, error)
	writeLine(addr uint64, data []byte) (int, error)
}

type stuckBit struct {
	byteIdx uint64
	mask    byte
	value   byte // 0 or the mask bit set
}

// Cache is a set-associative write-back, write-allocate cache with
// tree-PLRU replacement. Its data array is a fault-injection target.
type Cache struct {
	cfg       CacheConfig
	sets      int
	lineShift uint
	setMask   uint64

	tags  []uint64
	valid []bool
	dirty []bool
	data  []byte
	plru  []uint16

	lower level
	Stats CacheStats

	stuck []stuckBit

	watchArmed bool
	watchByte  uint64 // byte index in data array
	watchState core.WatchState

	// Fork support: golden points at the frozen checkpoint cache this one
	// was forked from; setDirty/dirtySets journal which sets have diverged
	// so ResetToGolden restores only those (O(touched sets)). A fork made
	// by ForkAt restores to golden with the delta checkpoint at laid over
	// it; atIdx maps a set to its position in at.sets (-1: not in it).
	golden       *Cache
	at           *CacheDelta
	atIdx        []int32
	setDirty     []bool
	dirtySets    []int
	setsRestored uint64
}

// NewCache builds a cache over the given lower level.
func NewCache(cfg CacheConfig, lower level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	var shift uint
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	n := sets * cfg.Ways
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		dirty:     make([]bool, n),
		data:      make([]byte, n*cfg.LineBytes),
		plru:      make([]uint16, sets),
		lower:     lower,
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) setOf(addr uint64) int { return int(addr >> c.lineShift & c.setMask) }
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.lineShift / uint64(c.sets)
}
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) << c.lineShift
}
func (c *Cache) way(set, way int) int { return set*c.cfg.Ways + way }

func (c *Cache) lineData(set, way int) []byte {
	off := c.way(set, way) * c.cfg.LineBytes
	return c.data[off : off+c.cfg.LineBytes]
}

// plruTouch marks way as most-recently used within set.
func (c *Cache) plruTouch(set, way int) {
	bits := c.plru[set]
	node, lo, hi := 1, 0, c.cfg.Ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits |= 1 << node
			node, hi = node*2, mid
		} else {
			bits &^= 1 << node
			node, lo = node*2+1, mid
		}
	}
	c.plru[set] = bits
}

// plruVictim returns the way the tree points at.
func (c *Cache) plruVictim(set int) int {
	bits := c.plru[set]
	node, lo, hi := 1, 0, c.cfg.Ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits>>node&1 == 1 {
			node, lo = node*2+1, mid
		} else {
			node, hi = node*2, mid
		}
	}
	return lo
}

// lookup finds the way holding addr's line, if present.
func (c *Cache) lookup(addr uint64) (set, way int, hit bool) {
	set = c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		i := c.way(set, w)
		if c.valid[i] && c.tags[i] == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// fill brings addr's line into the cache, evicting (and writing back) a
// victim if needed, and returns the allocated way plus the added latency.
func (c *Cache) fill(addr uint64) (int, int, error) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	way := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[c.way(set, w)] {
			way = w
			break
		}
	}
	lat := 0
	if way < 0 {
		way = c.plruVictim(set)
		i := c.way(set, way)
		if c.dirty[i] {
			victimAddr := c.lineAddr(set, c.tags[i])
			// A dirty faulty line escaping to the lower level can still
			// influence the outcome: it is not a dead fault.
			c.watchTouch(i, true)
			if _, err := c.lower.writeLine(victimAddr, c.lineData(set, way)); err != nil {
				return 0, 0, err
			}
			c.Stats.Writebacks++
		} else {
			c.watchKill(i)
		}
	}
	i := c.way(set, way)
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	low, err := c.lower.readLine(lineAddr, c.lineData(set, way))
	if err != nil {
		return 0, 0, err
	}
	lat += low
	// The refill overwrites any pending fault in this frame.
	c.watchKill(i)
	c.tags[i] = tag
	c.valid[i] = true
	c.dirty[i] = false
	c.applyStuck(i)
	return way, lat, nil
}

// Access performs a read or write of [addr, addr+len(buf)) which must lie
// within a single cache line. It returns the access latency.
func (c *Cache) Access(addr uint64, buf []byte, write bool) (int, error) {
	if int(addr&uint64(c.cfg.LineBytes-1))+len(buf) > c.cfg.LineBytes {
		return 0, fmt.Errorf("mem: cache %s access at %#x size %d crosses a line", c.cfg.Name, addr, len(buf))
	}
	set, way, hit := c.lookup(addr)
	c.markSet(set)
	lat := c.cfg.HitLat
	if hit {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
		var extra int
		var err error
		way, extra, err = c.fill(addr)
		if err != nil {
			return 0, err
		}
		lat += extra
	}
	c.plruTouch(set, way)
	i := c.way(set, way)
	off := uint64(c.way(set, way)*c.cfg.LineBytes) + addr&uint64(c.cfg.LineBytes-1)
	if write {
		c.watchOverwrite(off, len(buf))
		copy(c.data[off:], buf)
		c.dirty[i] = true
		c.applyStuck(i)
	} else {
		c.watchRead(off, len(buf))
		copy(buf, c.data[off:])
	}
	return lat, nil
}

// readLine implements level for an upper cache: a full-line read.
func (c *Cache) readLine(addr uint64, buf []byte) (int, error) {
	return c.Access(addr, buf, false)
}

// writeLine implements level for an upper cache: a full-line writeback.
func (c *Cache) writeLine(addr uint64, data []byte) (int, error) {
	return c.Access(addr, data, true)
}

// FlushTo writes every dirty line back to the lower level, leaving the
// cache clean but still valid. Used when extracting the final program
// output and when checkpointing to main memory.
func (c *Cache) FlushTo() error {
	for set := 0; set < c.sets; set++ {
		for w := 0; w < c.cfg.Ways; w++ {
			i := c.way(set, w)
			if c.valid[i] && c.dirty[i] {
				c.markSet(set)
				if _, err := c.lower.writeLine(c.lineAddr(set, c.tags[i]), c.lineData(set, w)); err != nil {
					return err
				}
				c.dirty[i] = false
			}
		}
	}
	return nil
}

// Peek reads bytes without affecting state or timing; ok is false when the
// line is absent.
func (c *Cache) Peek(addr uint64, buf []byte) bool {
	set, way, hit := c.lookup(addr)
	if !hit {
		return false
	}
	off := uint64(c.way(set, way)*c.cfg.LineBytes) + addr&uint64(c.cfg.LineBytes-1)
	copy(buf, c.data[off:])
	return true
}

// Clone deep-copies the cache; the caller re-links lower. The clone is a
// standalone cache: fork journaling does not carry over.
func (c *Cache) Clone(lower level) *Cache {
	n := *c
	n.tags = append([]uint64(nil), c.tags...)
	n.valid = append([]bool(nil), c.valid...)
	n.dirty = append([]bool(nil), c.dirty...)
	n.data = append([]byte(nil), c.data...)
	n.plru = append([]uint16(nil), c.plru...)
	n.stuck = append([]stuckBit(nil), c.stuck...)
	n.lower = lower
	n.golden = nil
	n.at, n.atIdx = nil, nil
	n.setDirty = nil
	n.dirtySets = nil
	n.setsRestored = 0
	return &n
}

// Fork deep-copies the cache like Clone but remembers c as the golden
// checkpoint and journals every set the fork touches, so ResetToGolden
// can roll the fork back in time proportional to the touched sets rather
// than the cache size. The golden cache must not be mutated afterwards.
func (c *Cache) Fork(lower level) *Cache {
	n := c.Clone(lower)
	n.golden = c
	n.setDirty = make([]bool, c.sets)
	n.dirtySets = make([]int, 0, 64)
	return n
}

// ForkAt is Fork positioned at a delta checkpoint captured from another
// fork of c: the fork starts with d's sets, statistics and fault state
// laid over c, and ResetToGolden returns to that view. d is shared
// read-only; nil is a plain Fork.
func (c *Cache) ForkAt(lower level, d *CacheDelta) *Cache {
	n := c.Fork(lower)
	if d == nil {
		return n
	}
	n.at = d
	n.atIdx = make([]int32, c.sets)
	for i := range n.atIdx {
		n.atIdx[i] = -1
	}
	for k, set := range d.sets {
		n.atIdx[set] = int32(k)
		n.loadSet(set, d.image(k))
	}
	n.resetFaultState()
	return n
}

// setImage is one set's contents — tags, valid and dirty bits, data and
// PLRU state — as slices into a cache or a delta checkpoint.
type setImage struct {
	tags         []uint64
	valid, dirty []bool
	data         []byte
	plru         uint16
}

func (a setImage) equal(b setImage) bool {
	return a.plru == b.plru && slices.Equal(a.tags, b.tags) && slices.Equal(a.valid, b.valid) &&
		slices.Equal(a.dirty, b.dirty) && slices.Equal(a.data, b.data)
}

// liveSet returns c's current contents of set.
func (c *Cache) liveSet(set int) setImage {
	lo, hi := set*c.cfg.Ways, (set+1)*c.cfg.Ways
	lb := c.cfg.LineBytes
	return setImage{c.tags[lo:hi], c.valid[lo:hi], c.dirty[lo:hi], c.data[lo*lb : hi*lb], c.plru[set]}
}

// checkpointSet returns set as it stood at the fork point.
func (c *Cache) checkpointSet(set int) setImage {
	if c.at != nil {
		if k := c.atIdx[set]; k >= 0 {
			return c.at.image(int(k))
		}
	}
	return c.golden.liveSet(set)
}

func (c *Cache) loadSet(set int, src setImage) {
	dst := c.liveSet(set)
	copy(dst.tags, src.tags)
	copy(dst.valid, src.valid)
	copy(dst.dirty, src.dirty)
	copy(dst.data, src.data)
	c.plru[set] = src.plru
}

// CacheDelta is the cache half of a delta checkpoint: a copy of every set
// a forked cache has touched since its golden checkpoint, in set order,
// plus the cache's statistics and fault state at that point. It is
// immutable once captured and may back any number of forks.
type CacheDelta struct {
	sets []int
	ways []*setWays
	plru []uint16

	stats      CacheStats
	stuck      []stuckBit
	watchArmed bool
	watchByte  uint64
	watchState core.WatchState
}

// setWays is a copy of one set's ways: tags, valid and dirty bits and
// data. Successive checkpoints of one walk share the copy of a set whose
// ways did not change between them (its PLRU state usually does, so that
// is kept per checkpoint).
type setWays struct {
	tags         []uint64
	valid, dirty []bool
	data         []byte
}

// holds reports whether w equals img's ways, whatever their PLRU state.
func (w *setWays) holds(img setImage) bool {
	return setImage{w.tags, w.valid, w.dirty, w.data, img.plru}.equal(img)
}

func (d *CacheDelta) image(k int) setImage {
	w := d.ways[k]
	return setImage{w.tags, w.valid, w.dirty, w.data, d.plru[k]}
}

// changedSets lists, in ascending order, every set of a forked cache that
// may differ from its golden checkpoint.
func (c *Cache) changedSets() []int {
	var ss []int
	if c.at != nil {
		ss = append(ss, c.at.sets...)
	}
	ss = append(ss, c.dirtySets...)
	slices.Sort(ss)
	return slices.Compact(ss)
}

// CaptureDelta copies every set of the forked cache c that may differ
// from its golden checkpoint, with c's statistics and fault state. prev,
// when non-nil, is an earlier capture of the same fork: sets whose ways
// still equal prev's copy share it instead of being copied again.
func (c *Cache) CaptureDelta(prev *CacheDelta) CacheDelta {
	sets := c.changedSets()
	d := CacheDelta{
		sets:       sets,
		ways:       make([]*setWays, len(sets)),
		plru:       make([]uint16, len(sets)),
		stats:      c.Stats,
		stuck:      slices.Clone(c.stuck),
		watchArmed: c.watchArmed,
		watchByte:  c.watchByte,
		watchState: c.watchState,
	}
	j := 0 // cursor into prev.sets; both lists are sorted
	for k, set := range sets {
		img := c.liveSet(set)
		d.plru[k] = img.plru
		if prev != nil {
			for j < len(prev.sets) && prev.sets[j] < set {
				j++
			}
			if j < len(prev.sets) && prev.sets[j] == set && prev.ways[j].holds(img) {
				d.ways[k] = prev.ways[j]
				continue
			}
		}
		d.ways[k] = &setWays{tags: slices.Clone(img.tags), valid: slices.Clone(img.valid),
			dirty: slices.Clone(img.dirty), data: slices.Clone(img.data)}
	}
	return d
}

// MatchesDelta reports whether the forked cache c holds exactly the state
// d describes: every set, the stuck bits and the watch. Statistics are not
// compared — nothing in the simulation reads them. c and d must descend
// from the same golden cache; only the union of both sides' changed sets
// is compared, every other set is the golden's on both.
func (c *Cache) MatchesDelta(d *CacheDelta) bool {
	if !slices.Equal(c.stuck, d.stuck) || c.watchArmed != d.watchArmed ||
		c.watchByte != d.watchByte || c.watchState != d.watchState {
		return false
	}
	for k, set := range d.sets {
		if !c.liveSet(set).equal(d.image(k)) {
			return false
		}
	}
	differs := func(set int) bool {
		_, inD := slices.BinarySearch(d.sets, set)
		return !inD && !c.liveSet(set).equal(c.golden.liveSet(set))
	}
	for _, set := range c.dirtySets {
		if differs(set) {
			return false
		}
	}
	if c.at != nil {
		for _, set := range c.at.sets {
			if differs(set) {
				return false
			}
		}
	}
	return true
}

// markSet journals a set mutation on a forked cache.
func (c *Cache) markSet(set int) {
	if c.setDirty != nil && !c.setDirty[set] {
		c.setDirty[set] = true
		c.dirtySets = append(c.dirtySets, set)
	}
}

// ResetToGolden restores a forked cache to its fork point (the golden
// checkpoint, or the delta checkpoint of ForkAt): journaled sets get their
// tags/valid/dirty/data/PLRU copied back, stats and fault state (stuck
// bits, watchpoint) are reset wholesale.
func (c *Cache) ResetToGolden() {
	if c.golden == nil {
		return
	}
	for _, set := range c.dirtySets {
		c.loadSet(set, c.checkpointSet(set))
		c.setDirty[set] = false
	}
	c.setsRestored += uint64(len(c.dirtySets))
	c.dirtySets = c.dirtySets[:0]
	c.resetFaultState()
}

// resetFaultState copies the fork point's statistics, stuck bits and
// watchpoint into c.
func (c *Cache) resetFaultState() {
	if d := c.at; d != nil {
		c.Stats = d.stats
		c.stuck = append(c.stuck[:0], d.stuck...)
		c.watchArmed, c.watchByte, c.watchState = d.watchArmed, d.watchByte, d.watchState
		return
	}
	g := c.golden
	c.Stats = g.Stats
	c.stuck = append(c.stuck[:0], g.stuck...)
	c.watchArmed, c.watchByte, c.watchState = g.watchArmed, g.watchByte, g.watchState
}

// SetsRestored returns the cumulative number of sets ResetToGolden has
// copied back on this fork.
func (c *Cache) SetsRestored() uint64 { return c.setsRestored }

// --- core.Target implementation (data array bits) ---

// TargetName implements core.Target.
func (c *Cache) TargetName() string { return c.cfg.Name }

// BitLen implements core.Target: all data-array bits.
func (c *Cache) BitLen() uint64 { return uint64(len(c.data)) * 8 }

// Live implements core.Target: the line holding the bit is valid.
func (c *Cache) Live(bit uint64) bool {
	return c.valid[bit/8/uint64(c.cfg.LineBytes)]
}

// setOfByte maps a data-array byte index to its set (layout: line index
// set*ways+way, each line LineBytes long).
func (c *Cache) setOfByte(byteIdx uint64) int {
	return int(byteIdx / uint64(c.cfg.LineBytes) / uint64(c.cfg.Ways))
}

// Flip implements core.Target.
func (c *Cache) Flip(bit uint64) {
	c.markSet(c.setOfByte(bit / 8))
	c.data[bit/8] ^= 1 << (bit % 8)
}

// Stick implements core.Target: the bit is forced to v from now on.
func (c *Cache) Stick(bit uint64, v uint8) {
	sb := stuckBit{byteIdx: bit / 8, mask: 1 << (bit % 8)}
	if v != 0 {
		sb.value = sb.mask
	}
	c.stuck = append(c.stuck, sb)
	c.applyStuckByte(sb)
}

func (c *Cache) applyStuck(lineIdx int) {
	if len(c.stuck) == 0 {
		return
	}
	lo := uint64(lineIdx * c.cfg.LineBytes)
	hi := lo + uint64(c.cfg.LineBytes)
	for _, sb := range c.stuck {
		if sb.byteIdx >= lo && sb.byteIdx < hi {
			c.applyStuckByte(sb)
		}
	}
}

func (c *Cache) applyStuckByte(sb stuckBit) {
	c.markSet(c.setOfByte(sb.byteIdx))
	c.data[sb.byteIdx] = c.data[sb.byteIdx]&^sb.mask | sb.value
}

// Watch implements core.Target.
func (c *Cache) Watch(bit uint64) {
	c.watchArmed = true
	c.watchByte = bit / 8
	c.watchState = core.WatchPending
}

// WatchState implements core.Target.
func (c *Cache) WatchState() core.WatchState { return c.watchState }

func (c *Cache) watchRead(off uint64, n int) {
	if c.watchArmed && c.watchState == core.WatchPending &&
		c.watchByte >= off && c.watchByte < off+uint64(n) {
		c.watchState = core.WatchRead
	}
}

func (c *Cache) watchOverwrite(off uint64, n int) {
	if c.watchArmed && c.watchState == core.WatchPending &&
		c.watchByte >= off && c.watchByte < off+uint64(n) {
		c.watchState = core.WatchDead
	}
}

// watchTouch marks the watched fault as escaped (written back) when the
// victim line contains it; kill instead records a provably dead fault.
func (c *Cache) watchTouch(lineIdx int, escaped bool) {
	if !c.watchArmed || c.watchState != core.WatchPending {
		return
	}
	lo := uint64(lineIdx * c.cfg.LineBytes)
	if c.watchByte >= lo && c.watchByte < lo+uint64(c.cfg.LineBytes) {
		if escaped {
			c.watchState = core.WatchRead
		} else {
			c.watchState = core.WatchDead
		}
	}
}

func (c *Cache) watchKill(lineIdx int) { c.watchTouch(lineIdx, false) }

var _ core.Target = (*Cache)(nil)
