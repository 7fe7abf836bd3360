package accel

import (
	"fmt"

	"marvel/internal/mem"
)

// HostBuf is one host-memory buffer bound to an accelerator argument.
type HostBuf struct {
	Arg  int
	Addr uint64
	Init []byte // initial contents (inputs); nil for outputs
	Len  int
}

// Task describes a standalone accelerator invocation: argument buffers in
// host memory plus which buffer holds the compared output.
type Task struct {
	Bufs   []HostBuf
	OutArg int // index into Bufs of the output buffer
}

// Standalone is the no-CPU harness of §V-G's "standalone DSA" platform: a
// host memory, one cluster, and a driver that pokes MMRs directly.
type Standalone struct {
	Host    *mem.Memory
	Cluster *Cluster
	task    Task

	// golden is the frozen pristine harness this one was forked from (nil
	// for ordinary instances); Reset rolls back to it.
	golden *Standalone
}

// NewStandalone instantiates a design with the given task.
func NewStandalone(d *Design, task Task) (*Standalone, error) {
	host := mem.NewMemory(0, 1<<20, 1)
	cl, err := NewCluster(d, MemHostPort{host})
	if err != nil {
		return nil, err
	}
	s := &Standalone{Host: host, Cluster: cl, task: task}
	for _, b := range task.Bufs {
		if b.Init != nil {
			if err := host.Write(b.Addr, b.Init); err != nil {
				return nil, err
			}
		}
		cl.SetArg(b.Arg, b.Addr)
	}
	return s, nil
}

// Fork creates a copy-on-write fork of a pristine (not yet started)
// harness, mirroring soc.System.Fork: host-memory pages are shared
// read-only with s until written, and the cluster (banks, engine, MMRs) is
// deep-copied once. A fork is meant to be reused across faulty runs via
// Reset, which rolls it back to s in time proportional to the state the
// previous run dirtied. The receiver becomes the frozen golden snapshot
// and must not be run afterwards; each fork belongs to a single goroutine,
// but many forks may share one snapshot.
func (s *Standalone) Fork() *Standalone {
	h := s.Host.Fork()
	return &Standalone{
		Host:    h,
		Cluster: s.Cluster.Clone(MemHostPort{h}),
		task:    s.task,
		golden:  s,
	}
}

// Forked reports whether the harness was created by Fork (and so supports
// Reset).
func (s *Standalone) Forked() bool { return s.golden != nil }

// snapshot freezes the harness's current state — possibly mid-task — into
// an independent Standalone that can serve as a fork base (a checkpoint
// ladder rung). The host memory is flattened into a deep copy and the
// cluster is deep-copied, so the receiver may keep running afterwards.
func (s *Standalone) snapshot() *Standalone {
	h := s.Host.Clone()
	return &Standalone{Host: h, Cluster: s.Cluster.Clone(MemHostPort{h}), task: s.task}
}

// Reset rolls a forked harness back to its golden snapshot, reusing the
// fork's storage: dirty host-memory pages are dropped and the cluster is
// restored in place, shedding the previous run's scheduled flips and
// stuck-at faults. After Reset the harness is indistinguishable from a
// fresh Fork of the snapshot.
func (s *Standalone) Reset() {
	if s.golden == nil {
		//marvel:allow errdiscipline API-misuse invariant guard (mirrors soc.System.Reset); campaigns only Reset forks they created
		panic("accel: Reset on a standalone that was not created by Fork")
	}
	s.Host.Reset()
	s.Cluster.ResetTo(s.golden.Cluster)
}

// ForkCounters reports how many host-memory pages copy-on-write
// materialized on this fork (zero for ordinary instances). The harness
// has no caches, so no cache sets are ever restored.
func (s *Standalone) ForkCounters() (pagesCopied, setsRestored uint64) {
	return s.Host.CoW().PagesCopied, 0
}

// Run starts the task and ticks until completion or the budget expires.
func (s *Standalone) Run(budget uint64) error {
	s.Cluster.Start()
	for !s.Cluster.Done() && s.Cluster.Cycle() < budget {
		s.Cluster.Tick()
	}
	if !s.Cluster.Done() {
		return fmt.Errorf("accel: %s task exceeded %d cycles", s.Cluster.design.Name, budget)
	}
	return s.Cluster.Faulted()
}

// Output reads the task's output buffer from host memory.
func (s *Standalone) Output() ([]byte, error) {
	ob := s.task.Bufs[s.task.OutArg]
	buf := make([]byte, ob.Len)
	if err := s.Host.Read(ob.Addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- Area model (Figure 17b) ---

// AreaUnits estimates a design's area in normalized units: functional
// units plus memory macros plus fixed control overhead.
func AreaUnits(d *Design) float64 {
	const (
		adderArea = 1.0
		mulArea   = 3.5
		divArea   = 9.0
		spmPerKB  = 0.9
		rbPerKB   = 1.6
		control   = 2.0
	)
	a := control +
		float64(d.FUs.Adders)*adderArea +
		float64(d.FUs.Multipliers)*mulArea +
		float64(d.FUs.Dividers)*divArea
	for _, b := range d.Banks {
		kb := float64(b.Size) / 1024
		if b.Kind == RegBank {
			a += kb * rbPerKB
		} else {
			a += kb * spmPerKB
		}
	}
	return a
}
