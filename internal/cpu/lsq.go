package cpu

import (
	"slices"

	"marvel/internal/core"
)

// Injection layout of one load/store queue entry, following the paper's
// description of queue state (address, data, status): bits 0..63 hold the
// address field, 64..127 the data/value field, and 128..135 a status byte
// (bit 0 address-ready, bit 1 data-ready/done, bit 2 sign-extend, bits 3..5
// the log2 access size; bits 6..7 are unused latches whose flips are
// naturally masked).
const (
	lsqEntryBits   = 136
	lsqAddrBase    = 0
	lsqDataBase    = 64
	lsqStatusBase  = 128
	lsqStAddrReady = 0
	lsqStDataReady = 1
	lsqStSigned    = 2
	lsqStSizeBase  = 3 // 3 bits
)

// lsqEntry is one slot of the load or store queue.
type lsqEntry struct {
	valid  bool
	seq    uint64
	robIdx int

	addr      uint64
	data      uint64 // store data / loaded value
	size      uint8  // access bytes: 1,2,4,8
	signed    bool
	addrReady bool
	dataReady bool // store data ready / load value delivered
	accessed  bool // load performed its memory access
	nullified bool // predicated-false op: no architectural access
	mmio      bool
}

// LSQ is a circular load or store queue and a fault-injection target.
type LSQ struct {
	name    string
	entries []lsqEntry
	head    int
	count   int

	stuck []lsqStuckBit

	watchArmed bool
	watchSlot  int
	watchState core.WatchState
	watchLate  bool // load value already delivered when the watch was armed
}

type lsqStuckBit struct {
	bit uint64
	val uint8
}

// NewLSQ creates a queue with the given capacity.
func NewLSQ(name string, capacity int) *LSQ {
	return &LSQ{name: name, entries: make([]lsqEntry, capacity)}
}

// Cap returns the queue capacity.
func (q *LSQ) Cap() int { return len(q.entries) }

// Count returns the number of allocated entries.
func (q *LSQ) Count() int { return q.count }

// Full reports whether no entry can be allocated.
func (q *LSQ) Full() bool { return q.count == len(q.entries) }

// slot maps queue position i (0 = oldest) to a physical slot index.
func (q *LSQ) slot(i int) int { return (q.head + i) % len(q.entries) }

// at returns the entry at queue position i (0 = oldest).
func (q *LSQ) at(i int) *lsqEntry { return &q.entries[q.slot(i)] }

// alloc appends a new entry and returns its physical slot.
func (q *LSQ) alloc(seq uint64, robIdx int) (int, bool) {
	if q.Full() {
		return 0, false
	}
	s := q.slot(q.count)
	q.entries[s] = lsqEntry{valid: true, seq: seq, robIdx: robIdx}
	q.count++
	q.applyStuckSlot(s)
	return s, true
}

// popHead releases the oldest entry (commit order).
func (q *LSQ) popHead() {
	s := q.head
	q.watchFreed(s)
	q.entries[s].valid = false
	q.head = (q.head + 1) % len(q.entries)
	q.count--
}

// squashYoungerThan removes every entry with seq > limit (mispredict
// recovery). Entries are allocated in sequence order, so this is a tail
// rollback.
func (q *LSQ) squashYoungerThan(limit uint64) {
	for q.count > 0 {
		s := q.slot(q.count - 1)
		if q.entries[s].seq <= limit {
			return
		}
		q.watchSquashed(s)
		q.entries[s].valid = false
		q.count--
	}
}

// reset empties the queue.
func (q *LSQ) reset() {
	for i := range q.entries {
		q.entries[i] = lsqEntry{}
	}
	q.head, q.count = 0, 0
}

// Clone deep-copies the queue.
func (q *LSQ) Clone() *LSQ {
	n := *q
	n.entries = append([]lsqEntry(nil), q.entries...)
	n.stuck = append([]lsqStuckBit(nil), q.stuck...)
	return &n
}

// SameState reports whether q and g hold the same entries, ring position,
// stuck bits and watch.
func (q *LSQ) SameState(g *LSQ) bool {
	return q.name == g.name && q.head == g.head && q.count == g.count && slices.Equal(q.entries, g.entries) &&
		slices.Equal(q.stuck, g.stuck) && q.watchArmed == g.watchArmed && q.watchSlot == g.watchSlot &&
		q.watchState == g.watchState && q.watchLate == g.watchLate
}

// ResetTo restores q to g's state without allocating, reusing q's backing
// arrays (checkpoint-fork reuse across faulty runs).
func (q *LSQ) ResetTo(g *LSQ) {
	entries, stuck := q.entries, q.stuck
	*q = *g
	q.entries = entries
	copy(q.entries, g.entries)
	q.stuck = append(stuck[:0], g.stuck...)
}

// --- core.Target implementation ---

// TargetName implements core.Target.
func (q *LSQ) TargetName() string { return q.name }

// BitLen implements core.Target.
func (q *LSQ) BitLen() uint64 { return uint64(len(q.entries)) * lsqEntryBits }

// Live implements core.Target.
func (q *LSQ) Live(bit uint64) bool {
	return q.entries[bit/lsqEntryBits].valid
}

// Flip implements core.Target.
func (q *LSQ) Flip(bit uint64) {
	e := &q.entries[bit/lsqEntryBits]
	q.xorBit(e, bit%lsqEntryBits)
}

func (q *LSQ) xorBit(e *lsqEntry, off uint64) {
	switch {
	case off < lsqDataBase:
		e.addr ^= 1 << off
	case off < lsqStatusBase:
		e.data ^= 1 << (off - lsqDataBase)
	default:
		q.setStatusBit(e, off-lsqStatusBase, !q.statusBit(e, off-lsqStatusBase))
	}
}

func (q *LSQ) statusBit(e *lsqEntry, b uint64) bool {
	switch b {
	case lsqStAddrReady:
		return e.addrReady
	case lsqStDataReady:
		return e.dataReady
	case lsqStSigned:
		return e.signed
	case lsqStSizeBase, lsqStSizeBase + 1, lsqStSizeBase + 2:
		return sizeLog(e.size)>>(b-lsqStSizeBase)&1 == 1
	default:
		return false
	}
}

func (q *LSQ) setStatusBit(e *lsqEntry, b uint64, v bool) {
	switch b {
	case lsqStAddrReady:
		e.addrReady = v
	case lsqStDataReady:
		e.dataReady = v
	case lsqStSigned:
		e.signed = v
	case lsqStSizeBase, lsqStSizeBase + 1, lsqStSizeBase + 2:
		lg := sizeLog(e.size)
		if v {
			lg |= 1 << (b - lsqStSizeBase)
		} else {
			lg &^= 1 << (b - lsqStSizeBase)
		}
		if lg > 3 {
			lg = 3 // clamp: hardware has only 1..8-byte accesses
		}
		e.size = 1 << lg
	}
}

func sizeLog(size uint8) uint8 {
	switch {
	case size >= 8:
		return 3
	case size >= 4:
		return 2
	case size >= 2:
		return 1
	default:
		return 0
	}
}

// Stick implements core.Target. The stuck value is re-applied whenever a
// slot is (re)allocated; field updates between allocations re-apply lazily
// via enforceStuck in the pipeline's access paths.
func (q *LSQ) Stick(bit uint64, v uint8) {
	q.stuck = append(q.stuck, lsqStuckBit{bit: bit, val: v})
	q.applyStuckSlot(int(bit / lsqEntryBits))
}

func (q *LSQ) applyStuckSlot(slot int) {
	for _, s := range q.stuck {
		if int(s.bit/lsqEntryBits) != slot {
			continue
		}
		e := &q.entries[slot]
		off := s.bit % lsqEntryBits
		cur := q.getBit(e, off)
		if cur != (s.val != 0) {
			q.xorBit(e, off)
		}
	}
}

// enforceStuck re-applies permanent faults to a slot after field updates.
func (q *LSQ) enforceStuck(slot int) {
	if len(q.stuck) != 0 {
		q.applyStuckSlot(slot)
	}
}

func (q *LSQ) getBit(e *lsqEntry, off uint64) bool {
	switch {
	case off < lsqDataBase:
		return e.addr>>off&1 == 1
	case off < lsqStatusBase:
		return e.data>>(off-lsqDataBase)&1 == 1
	default:
		return q.statusBit(e, off-lsqStatusBase)
	}
}

// Watch implements core.Target.
func (q *LSQ) Watch(bit uint64) {
	q.watchArmed = true
	q.watchSlot = int(bit / lsqEntryBits)
	q.watchState = core.WatchPending
	e := &q.entries[q.watchSlot]
	q.watchLate = e.valid && e.dataReady && e.accessed
}

// WatchState implements core.Target.
func (q *LSQ) WatchState() core.WatchState { return q.watchState }

// watchUsed marks the watched entry as consumed (conservative: the fault
// may propagate).
func (q *LSQ) watchUsed(slot int) {
	if q.watchArmed && q.watchState == core.WatchPending && slot == q.watchSlot {
		q.watchState = core.WatchRead
	}
}

// watchSquashed marks the watched entry provably dead.
func (q *LSQ) watchSquashed(slot int) {
	if q.watchArmed && q.watchState == core.WatchPending && slot == q.watchSlot {
		q.watchState = core.WatchDead
	}
}

// watchFreed resolves the watch when the entry retires: a load whose value
// was already delivered before the fault cannot propagate it anymore, so
// the fault is dead; anything else counts as consumed.
func (q *LSQ) watchFreed(slot int) {
	if q.watchArmed && q.watchState == core.WatchPending && slot == q.watchSlot {
		if q.watchLate {
			q.watchState = core.WatchDead
		} else {
			q.watchState = core.WatchRead
		}
	}
}

var _ core.Target = (*LSQ)(nil)
