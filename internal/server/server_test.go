package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"marvel"
	"marvel/internal/sweep"
)

// fastCampaign is the cheapest real CPU job: crc32 on the scaled-down
// test preset with a small statistical sample.
func fastCampaign(seed int64) Request {
	return Request{Kind: KindCampaign, Campaign: &marvel.CampaignOptions{
		ISA:       "riscv",
		Workload:  "crc32",
		Target:    "prf",
		Faults:    8,
		Seed:      seed,
		ValidOnly: true,
		Preset:    "fast",
	}}
}

func fastAccel(seed int64) Request {
	return Request{Kind: KindAccel, Accel: &marvel.AccelOptions{
		Design:    "gemm",
		Component: "MATRIX1",
		Faults:    8,
		Seed:      seed,
	}}
}

// runOffline executes the request's grid directly through the sweep
// orchestrator — the reference the service must match bit for bit.
func runOffline(t *testing.T, req Request) []sweep.CellReport {
	t.Helper()
	res, err := sweep.Run(req.grid())
	if err != nil {
		t.Fatalf("offline run: %v", err)
	}
	return res.Cells
}

// waitTerminal polls the job to a final state.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		s := j.Status()
		if s.Terminal() {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", j.ID, s.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verdictEvents collects the job's verdict events keyed by cell.
func verdictEvents(j *Job) map[string][]Event {
	out := map[string][]Event{}
	for _, e := range j.log.snapshot() {
		if e.Type == EventVerdict {
			out[e.Cell] = append(out[e.Cell], e)
		}
	}
	return out
}

// checkCompleteStream asserts the job streamed exactly one verdict per
// mask index of every cell — nothing lost, nothing duplicated.
func checkCompleteStream(t *testing.T, j *Job, cells []sweep.CellReport) {
	t.Helper()
	byCell := verdictEvents(j)
	if len(byCell) != len(cells) {
		t.Fatalf("verdicts cover %d cells, want %d", len(byCell), len(cells))
	}
	for _, c := range cells {
		evs := byCell[c.Key]
		if len(evs) != c.Faults {
			t.Fatalf("cell %s streamed %d verdicts, want %d", c.Key, len(evs), c.Faults)
		}
		seen := make(map[int]bool, len(evs))
		for _, e := range evs {
			if e.Index < 0 || e.Index >= c.Faults {
				t.Fatalf("cell %s verdict index %d out of range [0,%d)", c.Key, e.Index, c.Faults)
			}
			if seen[e.Index] {
				t.Fatalf("cell %s duplicated verdict for index %d", c.Key, e.Index)
			}
			seen[e.Index] = true
		}
	}
}

// checkDigests asserts the served job's per-cell verdict-stream digests
// equal the offline reference's.
func checkDigests(t *testing.T, served Status, offline []sweep.CellReport) {
	t.Helper()
	if len(served.Cells) != len(offline) {
		t.Fatalf("served %d cells, offline %d", len(served.Cells), len(offline))
	}
	for i := range offline {
		s, o := served.Cells[i], offline[i]
		if s.Key != o.Key {
			t.Fatalf("cell %d key %q, offline %q", i, s.Key, o.Key)
		}
		if s.Digest == "" {
			t.Fatalf("cell %s has empty digest", s.Key)
		}
		if s.Digest != o.Digest {
			t.Errorf("cell %s served digest %s != offline %s", s.Key, s.Digest, o.Digest)
		}
		if s.Masked != o.Masked || s.SDC != o.SDC || s.Crash != o.Crash {
			t.Errorf("cell %s served counts %d/%d/%d != offline %d/%d/%d",
				s.Key, s.Masked, s.SDC, s.Crash, o.Masked, o.SDC, o.Crash)
		}
	}
}

func TestServedCampaignDifferential(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Drain()

	req := fastCampaign(41)
	job, existing, err := m.Submit(req)
	if err != nil || existing {
		t.Fatalf("submit: existing=%v err=%v", existing, err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("job state %s (%s), want done", st.State, st.Error)
	}
	offline := runOffline(t, req)
	checkDigests(t, st, offline)
	checkCompleteStream(t, job, offline)
	if st.FaultsDone != int64(offline[0].Faults) {
		t.Fatalf("faultsDone %d, want %d", st.FaultsDone, offline[0].Faults)
	}
}

func TestServedAccelDifferential(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain()

	req := fastAccel(7)
	job, _, err := m.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("job state %s (%s), want done", st.State, st.Error)
	}
	offline := runOffline(t, req)
	checkDigests(t, st, offline)
	checkCompleteStream(t, job, offline)
}

// TestConcurrentJobsDifferential submits four jobs at once — two CPU
// seeds, a multi-structure CPU campaign, and an accelerator campaign —
// and checks every digest against its offline reference. Run under
// -race this is the service's concurrency guard.
func TestConcurrentJobsDifferential(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	defer m.Drain()

	multi := fastCampaign(5)
	multi.Campaign.Target = "prf+rob"
	reqs := []Request{fastCampaign(41), fastCampaign(42), multi, fastAccel(9)}

	jobs := make([]*Job, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.Submit(reqs[i])
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, j := range jobs {
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("job %d state %s (%s)", i, st.State, st.Error)
		}
		offline := runOffline(t, reqs[i])
		checkDigests(t, st, offline)
		checkCompleteStream(t, j, offline)
	}
}

func TestIdempotentResubmission(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain()

	req := fastCampaign(13)
	j1, existing, err := m.Submit(req)
	if err != nil || existing {
		t.Fatalf("first submit: existing=%v err=%v", existing, err)
	}
	j2, existing, err := m.Submit(req)
	if err != nil || !existing {
		t.Fatalf("resubmit: existing=%v err=%v", existing, err)
	}
	if j1 != j2 {
		t.Fatalf("resubmit returned a different job (%s vs %s)", j1.ID, j2.ID)
	}
	waitTerminal(t, j1)
	// Resubmitting a finished job still returns it, never re-runs it.
	j3, existing, err := m.Submit(req)
	if err != nil || !existing || j3 != j1 {
		t.Fatalf("post-completion resubmit: existing=%v err=%v", existing, err)
	}
	if got := m.Stats().Submitted; got != 1 {
		t.Fatalf("stats.Submitted = %d, want 1", got)
	}
}

func TestJobIDDeterministic(t *testing.T) {
	a, b := fastCampaign(41), fastCampaign(41)
	if a.ID() != b.ID() {
		t.Fatalf("equal specs got different IDs: %s vs %s", a.ID(), b.ID())
	}
	c := fastCampaign(42)
	if a.ID() == c.ID() {
		t.Fatalf("different seeds collided on ID %s", a.ID())
	}
	d := fastAccel(41)
	if a.ID() == d.ID() {
		t.Fatalf("different kinds collided on ID %s", a.ID())
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain()
	bad := []Request{
		{},
		{Kind: "bogus"},
		{Kind: KindCampaign},
		{Kind: KindCampaign, Campaign: &marvel.CampaignOptions{ISA: "mips", Workload: "crc32", Target: "prf", Faults: 4}},
		{Kind: KindCampaign, Campaign: &marvel.CampaignOptions{ISA: "riscv", Workload: "crc32", Target: "prf", Faults: 0}},
		{Kind: KindCampaign, Campaign: fastCampaign(1).Campaign, Accel: fastAccel(1).Accel},
		{Kind: KindAccel, Accel: &marvel.AccelOptions{Design: "gemm", Component: "MATRIX9", Faults: 4}},
		{Kind: KindAccel, Accel: &marvel.AccelOptions{Design: "gemm", Component: "MATRIX1", Faults: 4, GemmMultipliers: 3}},
		{Kind: KindSweep, Sweep: &marvel.SweepOptions{ISAs: []string{"riscv"}, Targets: []string{"prf"}, Faults: 4, OutDir: "/tmp/x"}},
		{Kind: KindSweep, Sweep: &marvel.SweepOptions{Faults: 4}},
	}
	for i, req := range bad {
		if _, _, err := m.Submit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if got := m.Stats().Submitted; got != 0 {
		t.Fatalf("bad submissions counted: %d", got)
	}
}

// blockingRunner returns a stub runner that parks every job on release
// and reports how many jobs entered it.
func blockingRunner() (runner func(sweep.Spec) (*sweep.Result, error), release chan struct{}) {
	release = make(chan struct{})
	return func(sweep.Spec) (*sweep.Result, error) {
		<-release
		return &sweep.Result{}, nil
	}, release
}

func TestQueueBackpressure(t *testing.T) {
	runner, release := blockingRunner()
	m := NewManager(Config{Workers: 1, QueueDepth: 1, runner: runner})
	defer func() { close(release); m.Drain() }()

	// First job occupies the single worker...
	a, _, err := m.Submit(fastCampaign(1))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	waitState(t, a, StateRunning)
	// ...second fills the queue...
	if _, _, err := m.Submit(fastCampaign(2)); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	// ...third bounces with backpressure.
	_, _, err = m.Submit(fastCampaign(3))
	if err != ErrQueueFull {
		t.Fatalf("submit c: err = %v, want ErrQueueFull", err)
	}
	if m.retryAfter() < time.Second {
		t.Fatalf("retryAfter %v < 1s", m.retryAfter())
	}
	if got := m.Stats().Throttled; got != 1 {
		t.Fatalf("stats.Throttled = %d, want 1", got)
	}
}

func waitState(t *testing.T, j *Job, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().State != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.Status().State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrain is the SIGTERM semantics guard: the in-flight job finishes
// with a complete, duplicate-free verdict stream whose digest still
// matches the offline reference; queued jobs are rejected with no
// verdict events; new submissions are refused.
func TestDrain(t *testing.T) {
	m := NewManager(Config{Workers: 1})

	reqA := fastCampaign(41)
	a, _, err := m.Submit(reqA)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	waitState(t, a, StateRunning)
	b, _, err := m.Submit(fastCampaign(1002))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	c, _, err := m.Submit(fastAccel(1003))
	if err != nil {
		t.Fatalf("submit c: %v", err)
	}

	m.Drain()

	if st := a.Status(); st.State != StateDone {
		t.Fatalf("in-flight job state %s (%s), want done", st.State, st.Error)
	}
	offline := runOffline(t, reqA)
	checkDigests(t, a.Status(), offline)
	checkCompleteStream(t, a, offline)

	for _, j := range []*Job{b, c} {
		if st := j.Status(); st.State != StateRejected {
			t.Fatalf("queued job %s state %s, want rejected", j.ID, st.State)
		}
		if evs := verdictEvents(j); len(evs) != 0 {
			t.Fatalf("rejected job %s streamed %d verdict cells", j.ID, len(evs))
		}
	}
	if _, _, err := m.Submit(fastCampaign(9)); err != ErrDraining {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	st := m.Stats()
	if !st.Draining || st.Rejected != 2 || st.Completed != 1 {
		t.Fatalf("post-drain stats %+v", st)
	}
	// Drain is idempotent.
	m.Drain()
}

func TestGoldenLRU(t *testing.T) {
	c := NewGoldenLRU(2)
	builds := 0
	mk := func(key string) (*sweep.CPUGolden, bool, error) {
		return c.CPUGolden(key, func() (*sweep.CPUGolden, error) {
			builds++
			return &sweep.CPUGolden{}, nil
		})
	}
	if _, hit, _ := mk("cpu/a"); hit {
		t.Fatal("first lookup hit")
	}
	if _, hit, _ := mk("cpu/b"); hit {
		t.Fatal("first lookup hit")
	}
	if _, hit, _ := mk("cpu/a"); !hit {
		t.Fatal("second lookup missed")
	}
	// b is now LRU; inserting c evicts it.
	if _, hit, _ := mk("cpu/c"); hit {
		t.Fatal("fresh key hit")
	}
	if _, hit, _ := mk("cpu/b"); hit {
		t.Fatal("evicted key still cached")
	}
	if builds != 4 {
		t.Fatalf("builds = %d, want 4 (a, b, c, b-again)", builds)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestGoldenLRUErrorNotCached(t *testing.T) {
	c := NewGoldenLRU(4)
	calls := 0
	bad := func() (*sweep.AccelGolden, error) {
		calls++
		return nil, fmt.Errorf("boom %d", calls)
	}
	if _, _, err := c.AccelGolden("accel/x", bad); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, err := c.AccelGolden("accel/x", bad); err == nil || calls != 2 {
		t.Fatalf("failed entry cached: calls=%d err=%v", calls, err)
	}
	good, _, err := c.AccelGolden("accel/x", func() (*sweep.AccelGolden, error) {
		return &sweep.AccelGolden{}, nil
	})
	if err != nil || good == nil {
		t.Fatalf("recovery build failed: %v", err)
	}
}

func TestGoldenLRUSingleflight(t *testing.T) {
	c := NewGoldenLRU(4)
	var mu sync.Mutex
	builds := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.CPUGolden("cpu/k", func() (*sweep.CPUGolden, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				return &sweep.CPUGolden{}, nil
			})
			if err != nil {
				t.Errorf("lookup: %v", err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("concurrent lookups built %d times", builds)
	}
}

// TestGoldenSharedAcrossJobs proves the service-level point of the LRU:
// two jobs over the same workload pay for the golden once.
func TestGoldenSharedAcrossJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Drain()

	j1, _, err := m.Submit(fastCampaign(100))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, j1)
	j2, _, err := m.Submit(fastCampaign(200))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitTerminal(t, j2); st.State != StateDone {
		t.Fatalf("job 2 state %s (%s)", st.State, st.Error)
	}
	st := m.Goldens().Stats()
	if st.Misses != 1 || st.Hits < 1 {
		t.Fatalf("golden cache stats %+v, want 1 miss and >=1 hit", st)
	}
}
