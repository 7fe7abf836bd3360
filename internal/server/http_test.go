package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marvel/internal/sweep"
)

func postJob(t *testing.T, ts *httptest.Server, req Request) (*http.Response, Status) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	}
	return resp, st
}

// readEvents consumes a JSONL event stream to EOF.
func readEvents(t *testing.T, url string) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", url, resp.StatusCode)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func TestHTTPSubmitAndStream(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Manager.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := fastCampaign(55)
	resp, st := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if st.ID != req.ID() {
		t.Fatalf("job ID %s, want %s", st.ID, req.ID())
	}

	// The JSONL stream blocks until the job finishes, so reading it to
	// EOF both waits for and validates the full lifecycle.
	events := readEvents(t, ts.URL+"/api/v1/jobs/"+st.ID+"/events")
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d — lost or reordered", i, e.Seq)
		}
	}
	if events[0].Type != EventQueued || events[len(events)-1].Type != EventDone {
		t.Fatalf("lifecycle %s..%s, want queued..done", events[0].Type, events[len(events)-1].Type)
	}
	verdicts := 0
	var cellReport *sweep.CellReport
	for _, e := range events {
		switch e.Type {
		case EventVerdict:
			verdicts++
		case EventCell:
			cellReport = e.Report
		}
	}
	if verdicts != req.Campaign.Faults {
		t.Fatalf("streamed %d verdicts, want %d", verdicts, req.Campaign.Faults)
	}
	if cellReport == nil || cellReport.Digest == "" {
		t.Fatalf("cell event missing report/digest: %+v", cellReport)
	}

	// Resubmission over HTTP is idempotent: 200, same job.
	resp2, st2 := postJob(t, ts, req)
	if resp2.StatusCode != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmit: status %d id %s", resp2.StatusCode, st2.ID)
	}
	if st2.State != StateDone {
		t.Fatalf("resubmitted job state %s, want done", st2.State)
	}

	// Status endpoint agrees with the stream's cell report.
	var got Status
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &got)
	if len(got.Cells) != 1 || got.Cells[0].Digest != cellReport.Digest {
		t.Fatalf("status digest mismatch: %+v", got.Cells)
	}

	// Mid-stream resume skips already-seen events.
	tail := readEvents(t, ts.URL+"/api/v1/jobs/"+st.ID+"/events?from="+fmt.Sprint(len(events)-1))
	if len(tail) != 1 || tail[0].Type != EventDone {
		t.Fatalf("resume tail %+v, want single done event", tail)
	}

	var list []Status
	getJSON(t, ts.URL+"/api/v1/jobs", &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job list %+v", list)
	}
	var stats Stats
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if stats.Completed != 1 {
		t.Fatalf("stats %+v, want 1 completed", stats)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func TestHTTPSSEFraming(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Manager.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := fastCampaign(66)
	if resp, _ := postJob(t, ts, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + req.ID() + "/events?sse=1")
	if err != nil {
		t.Fatalf("get sse: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	frames := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("no SSE frames")
	}
}

func TestHTTPErrors(t *testing.T) {
	runner, release := blockingRunner()
	s := &Server{Manager: NewManager(Config{Workers: 1, QueueDepth: 1, runner: runner})}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed body.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected, not silently dropped (a typoed option
	// must not silently run a different campaign).
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"campaign","campaing":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// Invalid spec.
	bad := fastCampaign(1)
	bad.Campaign.ISA = "mips"
	if resp, _ := postJob(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", resp.StatusCode)
	}
	// Unknown job.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/j-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/j-deadbeef/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: status %d, want 404", resp.StatusCode)
	}

	// Backpressure: one running, one queued, third gets 429 + Retry-After.
	if resp, _ := postJob(t, ts, fastCampaign(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status %d", resp.StatusCode)
	}
	waitState(t, s.Manager.Get(fastCampaign(1).ID()), StateRunning)
	if resp, _ := postJob(t, ts, fastCampaign(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status %d", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, fastCampaign(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Healthy while serving...
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	close(release)
	s.Manager.Drain()

	// ...draining afterwards: health 503, submissions 503.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, fastCampaign(4)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPRejectsRetiredForkingOptions: the per-run clone and rebuild A/B
// options were removed from the campaign and accel specs. A submission
// that still carries one is an unknown field and gets 400, instead of
// silently running the default forking strategy.
func TestHTTPRejectsRetiredForkingOptions(t *testing.T) {
	s := &Server{Manager: NewManager(Config{Workers: 1})}
	defer s.Manager.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, name := range []string{"retired_ab_campaign.json", "retired_ab_accel.json"} {
		body, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Fatalf("%s: status %d (%s), want 400 for an unknown field", name, resp.StatusCode, msg)
		}
	}
	if got := s.Manager.Stats().Submitted; got != 0 {
		t.Fatalf("retired-option submissions counted: %d", got)
	}
}
