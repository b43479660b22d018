package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcd/internal/journal"
	"mcd/internal/resultcache"
	"mcd/internal/wire"
)

// TestCrashResumeByteIdentity is the crash-safety contract end to end:
// submit one job of every kind, hard-stop the manager mid-run with no
// drain (Kill — the in-process stand-in for SIGKILL), restart over the
// same journal and cache directories, and every job reaches Done under
// its original ID with a body byte-identical to an uninterrupted run's.
func TestCrashResumeByteIdentity(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.ndjson")
	cacheDir := filepath.Join(dir, "cache")

	// Job 1 is long enough (~1s) that the kill reliably lands mid-run;
	// every other job is still queued behind the single runner.
	long := wire.RunRequest{Benchmark: "adpcm", Config: "attack-decay", Window: 2_000_000, Warmup: wire.U64(4_000), Interval: wire.U64(250)}
	quickA := wire.RunRequest{Benchmark: "adpcm", Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000)}
	quickB := wire.RunRequest{Benchmark: "adpcm", Config: "sync", Window: 8_000, Warmup: wire.U64(4_000)}
	streamed := wire.RunRequest{Benchmark: "mcf", Config: "attack-decay", Window: 8_000, Warmup: wire.U64(4_000), Interval: wire.U64(250)}
	batch := []wire.RunRequest{
		{Benchmark: "mcf", Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000)},
		{Benchmark: "epic", Config: "attack-decay", Window: 8_000, Warmup: wire.U64(4_000)},
	}
	exp := wire.ExperimentRequest{Name: "table6", Quick: true, Window: 10_000, Warmup: 5_000, Benchmarks: []string{"adpcm"}}
	subs := []journal.Submit{
		{Kind: journal.KindRun, Run: &long},
		{Kind: journal.KindRun, Run: &quickA},
		{Kind: journal.KindRun, Run: &quickB},
		{Kind: journal.KindStream, Run: &streamed},
		{Kind: journal.KindBatch, Runs: batch},
		{Kind: journal.KindExperiment, Experiment: &exp},
	}

	// The uninterrupted reference, over its own private cache.
	want := make([][]byte, len(subs))
	ref := New(Options{Runners: 1})
	for i, sub := range subs {
		j, err := ref.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := j.WaitResult(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = body
	}
	ref.Close()

	// The interrupted run: journaled, disk-backed cache, killed while
	// job 1 is mid-simulation.
	jnl, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.New(resultcache.Options{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Runners: 1, Journal: jnl, Cache: cache})
	ids := make([]string, len(subs))
	jobs := make([]*Job, len(subs))
	for i, sub := range subs {
		sub.Client = "crash-client"
		j, err := m.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], jobs[i] = j.ID(), j
	}
	waitState(t, jobs[0], Running)
	m.Kill() // no drain, no terminal journal records — as SIGKILL would leave it

	// Restart over the same journal and cache directories.
	jnl2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(jnl2.Pending()); got != len(subs) {
		t.Fatalf("journal replay found %d live jobs, want %d", got, len(subs))
	}
	cache2, err := resultcache.New(resultcache.Options{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{Runners: 1, Journal: jnl2, Cache: cache2})
	defer m2.Close()
	for i, id := range ids {
		j, ok := m2.Job(id)
		if !ok {
			t.Fatalf("%s job %s not re-queued after restart", subs[i].Kind, id)
		}
		body, snap, err := j.WaitResult(context.Background())
		if err != nil {
			t.Fatalf("resumed %s job %s: %v", subs[i].Kind, id, err)
		}
		if snap.State != Done {
			t.Fatalf("resumed %s job %s state %s, want done", subs[i].Kind, id, snap.State)
		}
		if !bytes.Equal(body, want[i]) {
			t.Errorf("resumed %s job %s body diverged from the uninterrupted run (%d vs %d bytes)", subs[i].Kind, id, len(body), len(want[i]))
		}
	}

	// The replay gauge reports the resumed set, and new submissions
	// continue the ID sequence past the replayed ones.
	var scrape strings.Builder
	if err := m2.Metrics().Render(&scrape); err != nil {
		t.Fatal(err)
	}
	if want := "mcd_journal_replayed_jobs " + strconv.Itoa(len(subs)) + "\n"; !strings.Contains(scrape.String(), want) {
		t.Errorf("scrape missing %q:\n%s", want, scrape.String())
	}
	next, err := m2.Submit(journal.Submit{Kind: journal.KindRun, Run: &quickA})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("j%06d", len(subs)+1); next.ID() != want {
		t.Errorf("post-restart job ID = %s, want %s (sequence resumed past replayed IDs)", next.ID(), want)
	}
}

// TestSubmitRejectsMalformed: a submission of an unknown kind, or of a
// known kind without its payload, is refused before it takes any state
// — no job in the table, no record in the journal.
func TestSubmitRejectsMalformed(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.ndjson")
	jnl, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Runners: 1, Journal: jnl})
	run := wire.RunRequest{Benchmark: "adpcm", Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000)}
	for _, sub := range []journal.Submit{
		{Kind: "bogus", Client: "c", Run: &run},
		{Kind: journal.KindRun, Client: "c"},
		{Kind: journal.KindStream, Client: "c"},
		{Kind: journal.KindBatch, Client: "c"},
		{Kind: journal.KindExperiment, Client: "c"},
	} {
		if j, err := m.Submit(sub); err == nil {
			t.Errorf("Submit(kind %q) accepted job %s, want an error", sub.Kind, j.ID())
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected submissions left %d jobs in the table", len(jobs))
	}
	m.Kill()
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Errorf("rejected submissions reached the journal:\n%s", raw)
	}
}

// TestClientQuota pins the per-client budget: with the runner pinned, a
// client may hold ClientQuota queued jobs; the next submission fails
// with ErrQuota while other clients — and quota-exempt anonymous
// submissions — still get in.
func TestClientQuota(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 16, ClientQuota: 2})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("done\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	running, err := m.enqueue("", nil, "block", 1, block)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running)

	var greedyJobs []*Job
	for i := 0; i < 2; i++ {
		j, err := m.enqueue("greedy", nil, "block", 1, block)
		if err != nil {
			t.Fatalf("greedy submission %d within quota: %v", i, err)
		}
		greedyJobs = append(greedyJobs, j)
	}
	if _, err := m.enqueue("greedy", nil, "block", 1, block); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submission: err = %v, want ErrQuota", err)
	}
	// The queue itself still has room: another client gets in, and
	// anonymous (library) submissions are exempt entirely.
	if _, err := m.enqueue("polite", nil, "block", 1, block); err != nil {
		t.Fatalf("other client blocked by greedy's quota: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.enqueue("", nil, "block", 1, block); err != nil {
			t.Fatalf("anonymous submission %d hit a quota: %v", i, err)
		}
	}
	// Cancelling one of greedy's queued jobs frees its budget.
	if !m.Cancel(greedyJobs[0].ID()) {
		t.Fatal("cancel returned false")
	}
	waitState(t, greedyJobs[0], Failed)
	if _, err := m.enqueue("greedy", nil, "block", 1, block); err != nil {
		t.Fatalf("submission after freeing quota: %v", err)
	}
}

// TestRejectionResponses pins the 429 contract of the HTTP layer: both
// rejection flavors answer 429 with a Retry-After of at least one
// second, and the body names the reason — quota for a greedy client's
// own bound, queue when the shared queue is exhausted.
func TestRejectionResponses(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 2, ClientQuota: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	running, err := m.enqueue("", nil, "block", 1, func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("done\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running)

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	post := func(client string) *http.Response {
		req, err := http.NewRequest("POST", srv.URL+"/v1/runs",
			strings.NewReader(`{"benchmark":"adpcm","config":"mcd","window":8000,"warmup":4000,"async":true}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check429 := func(resp *http.Response, reason string) {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
		}
		var decoded struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
			Retry  int    `json:"retry_after_seconds"`
		}
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("429 body not JSON: %s", body)
		}
		if decoded.Reason != reason || decoded.Error == "" || decoded.Retry != ra {
			t.Errorf("429 body = %s, want reason %q matching header %d", body, reason, ra)
		}
	}

	if resp := post("greedy"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first greedy submission: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	check429(post("greedy"), "quota") // greedy's own bound, queue still has room
	if resp := post("other"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client blocked: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	check429(post("third"), "queue") // the shared queue is now full

	// The scrape reflects the rejections and the core gauges.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"mcd_queue_depth 2",
		`mcd_jobs{state="running"} 1`,
		`mcd_jobs_rejected_total{reason="quota"} 1`,
		`mcd_jobs_rejected_total{reason="queue"} 1`,
		`mcd_jobs_submitted_total{kind="run"} 2`,
		"mcd_sim_instructions_total",
		`mcd_cache_hits_total{tier="mem"}`,
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}
}

// TestUserCancelDoesNotResurrect: an explicit DELETE-style cancel is
// terminal in the journal — unlike a crash, the job must not come back
// at the next restart.
func TestUserCancelDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.ndjson")
	jnl, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Runners: 1, QueueDepth: 8, Journal: jnl})
	release := make(chan struct{})
	defer close(release)
	running, err := m.enqueue("", nil, "block", 1, func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("done\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running)

	victim, err := m.Submit(journal.Submit{Kind: journal.KindRun, Client: "alice", Run: &wire.RunRequest{Benchmark: "adpcm", Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000)}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(victim.ID()) {
		t.Fatal("cancel returned false")
	}
	waitState(t, victim, Failed)
	m.Kill()

	jnl2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	for _, sub := range jnl2.Pending() {
		if sub.ID == victim.ID() {
			t.Fatalf("cancelled job %s resurrected by replay", sub.ID)
		}
	}
}
