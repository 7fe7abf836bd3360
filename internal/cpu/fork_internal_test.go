package cpu

import (
	"reflect"
	"testing"

	"marvel/internal/isa"
	"marvel/internal/mem"
)

// TestForkStorageNotShared pins that Clone and ResetTo give the new core
// its own fetch store and fetch queue. Both start as struct copies of
// the golden core, so a field they fail to re-point would leave a
// scratch core fetching and renaming through the golden core's arrays.
// The golden core is snapshotted mid-run with bytes in its fetch buffer
// and micro-ops in its queue; after a Clone and a reset scratch run to
// completion, none of its front-end state or Stats may have moved.
func TestForkStorageNotShared(t *testing.T) {
	must := func(w uint32, ok bool) uint32 {
		if !ok {
			t.Fatal("encode failed")
		}
		return w
	}
	// A chain of 120 dependent divides backs up the issue queue, so the
	// micro-op queue fills and fetch stops with bytes still buffered.
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 2000)),
		must(isa.RvALUImm(isa.AluAdd, 6, isa.RvZero, 1)),
	}
	for range 120 {
		words = append(words, must(isa.RvALU(isa.AluDivU, 5, 5, 6)))
	}
	words = append(words, isa.RvSys(isa.MagicExit))
	code := make([]byte, 0, 4*len(words))
	for _, w := range words {
		code = append(code, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	m := mem.NewMemory(0, 1<<20, 40)
	h, err := mem.NewHierarchy(mem.HierarchyConfig{
		L1I: mem.CacheConfig{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L1D: mem.CacheConfig{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L2:  mem.CacheConfig{Name: "l2", SizeBytes: 1 << 15, LineBytes: 64, Ways: 8, HitLat: 10},
	}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, code); err != nil {
		t.Fatal(err)
	}
	g, err := New(isa.RV64L{}, DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	g.Boot(0x1000, 0xF0000, isa.RvSP)
	for g.cycle < 100 || len(g.fbuf) == 0 || len(g.uq) == 0 {
		if g.Done() || g.cycle > 10_000 {
			t.Fatal("golden core never held fetched bytes and queued micro-ops mid-run")
		}
		g.Step()
	}
	fbuf := append([]byte(nil), g.fbuf...)
	uq := append([]fqUop(nil), g.uq...)
	stats := g.Stats

	runOut := func(what string, c *CPU) {
		t.Helper()
		if &c.fstore[0] == &g.fstore[0] || &c.uq[:1][0] == &g.uq[:1][0] {
			t.Fatalf("%s shares the golden core's front-end storage", what)
		}
		for i := 0; i < 100_000 && !c.Done(); i++ {
			c.Step()
		}
		if !c.Halted() {
			t.Fatalf("%s did not halt: trap %v", what, c.Trap())
		}
		if !reflect.DeepEqual(g.fbuf, fbuf) || !reflect.DeepEqual(g.uq, uq) || g.Stats != stats {
			t.Fatalf("running the %s changed the golden core's fetch buffer, fetch queue or Stats", what)
		}
	}

	runOut("clone", g.Clone(h.Clone()))

	// A scratch core dirties its own storage on a first run, then is
	// reset onto the golden core, as a campaign worker does per fault.
	hs := h.Fork()
	scratch := g.Clone(hs)
	for i := 0; i < 500 && !scratch.Done(); i++ {
		scratch.Step()
	}
	hs.Reset()
	scratch.ResetTo(g)
	runOut("reset scratch", scratch)
}
