package bench_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mcd/internal/bench"
	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/wire"
	"mcd/internal/workload"
)

// memoGrid is a two-benchmark Table 6 grid small enough to repeat
// under -race. One refinement pass leaves Dynamic-1% and Dynamic-5% on
// the same degradation, so each row's Global(D1) and Global(D5) targets
// coincide and the second search is shared with the first in full.
func memoGrid(workers int) bench.Options {
	o := bench.DefaultOptions()
	o.Window, o.Warmup, o.IntervalLength = 2_000, 1_000, 250
	o.OfflineIters = 1
	o.Benchmarks = []string{"adpcm", "mcf"}
	o.Workers = workers
	return o
}

// cellBytes is the canonical encoding of every cell of a grid, by the
// label the harness gives the cell.
func cellBytes(t *testing.T, cs []bench.Comparison) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, c := range cs {
		for label, r := range map[string]stats.Result{
			"sync": c.Sync, "mcd-base": c.MCDBase, "attack-decay": c.AD,
			"dynamic-1%": c.Dyn1, "dynamic-5%": c.Dyn5,
			"global-ad": c.GlobalAD, "global-d1": c.GlobalD1, "global-d5": c.GlobalD5,
		} {
			b, err := resultcache.EncodeResult(r)
			if err != nil {
				t.Fatal(err)
			}
			out[c.Bench.Name+"/"+label] = b
		}
	}
	return out
}

// TestExperimentMemoComputesEachSpecOnce: within a batch every distinct
// spec is simulated exactly once, and routing runs through the memo
// changes no cell. Every request a batch makes either reuses a stored
// result, waits on an in-flight one, or computes and stores; with no
// eviction the stored entries are therefore the distinct keys the batch
// requested, and one miss per entry means none was computed twice.
func TestExperimentMemoComputesEachSpecOnce(t *testing.T) {
	o := memoGrid(1)
	var log strings.Builder
	o.Log = &log
	cs, memos := o.RunAllMemo()
	for i, st := range memos {
		if st.Evictions != 0 || st.Entries == 0 {
			t.Fatalf("phase %d memo: %+v (want entries and no evictions)", i+1, st)
		}
		if st.Misses != uint64(st.Entries) {
			t.Errorf("phase %d memo computed %d runs for %d distinct specs", i+1, st.Misses, st.Entries)
		}
		if st.Hits() == 0 {
			t.Errorf("phase %d memo reused nothing: %+v", i+1, st)
		}
		line := fmt.Sprintf("phase %d memo: %d computed, %d reused, %d dedup-waits\n", i+1, st.Misses, st.MemHits, st.Dedups)
		if !strings.Contains(log.String(), line) {
			t.Errorf("progress log lacks %q", line)
		}
	}

	// The same cells, each run alone through its wire request with no
	// memo: the Exec hook receives every cell and the grid is assembled
	// from the standalone bodies.
	var mu sync.Mutex
	alone := map[string][]byte{}
	ref := memoGrid(1)
	ref.Exec = func(_ context.Context, c bench.Cell) ([]byte, error) {
		b, _, err := wire.CellRequest(c).RunCachedBytes(nil)
		mu.Lock()
		alone[c.Label] = b
		mu.Unlock()
		return b, err
	}
	ref.RunAll()
	got := cellBytes(t, cs)
	if len(alone) != len(got) {
		t.Fatalf("standalone run saw %d cells, memo grid has %d", len(alone), len(got))
	}
	for label, b := range got {
		if !bytes.Equal(b, alone[label]) {
			t.Errorf("cell %s differs from its standalone run:\nmemo  %s\nalone %s", label, b, alone[label])
		}
	}
}

// TestExperimentMemoConcurrentWorkers: the memo is shared by a batch's
// concurrent cells, yet output and the number of simulations are the
// same at one and four workers. With four workers a row's coinciding
// Global(D1) and Global(D5) searches run side by side, so one waits on
// the other's probes.
func TestExperimentMemoConcurrentWorkers(t *testing.T) {
	serial, m1 := memoGrid(1).RunAllMemo()
	for _, c := range serial {
		if c.Dyn1.TimePS != c.Dyn5.TimePS {
			t.Fatalf("%s: Global(D1) and Global(D5) targets differ; the grid no longer exercises a shared search", c.Bench.Name)
		}
	}
	par, m4 := memoGrid(4).RunAllMemo()
	for name, f := range map[string]func([]bench.Comparison) string{
		"table6": bench.Table6, "fig4": bench.Fig4, "headline": bench.Headline,
	} {
		if f(par) != f(serial) {
			t.Errorf("workers=4: %s output not byte-identical to serial output", name)
		}
	}
	want := cellBytes(t, serial)
	for label, b := range cellBytes(t, par) {
		if !bytes.Equal(b, want[label]) {
			t.Errorf("workers=4: cell %s differs from serial", label)
		}
	}
	for i := range m1 {
		if m1[i].Misses != m4[i].Misses {
			t.Errorf("phase %d: %d simulations at one worker, %d at four", i+1, m1[i].Misses, m4[i].Misses)
		}
	}
	t.Logf("phase 2 memo at four workers: %+v", m4[1])
}

// panicCtrl panics at its first interval once released; until then it
// holds its run in flight.
type panicCtrl struct {
	entered chan<- struct{}
	release <-chan struct{}
	once    *sync.Once
}

func (panicCtrl) Name() string     { return "panic" }
func (panicCtrl) CacheKey() string { return "panic-test" }
func (c panicCtrl) Observe(pipeline.IntervalView) [clock.NumControllable]float64 {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	panic("injected controller failure")
}

// TestExperimentMemoReleasesWaitersOnPanic: a run that panics while
// another request waits on it releases the waiter with an error
// instead of stranding it, and leaves no flight behind for later
// requests.
func TestExperimentMemoReleasesWaitersOnPanic(t *testing.T) {
	b, _ := workload.Lookup("adpcm")
	entered, release := make(chan struct{}), make(chan struct{})
	spec := sim.Spec{
		Config: pipeline.DefaultConfig(), Profile: b.Profile,
		Window: 2_000, IntervalLength: 250,
		Controller: panicCtrl{entered: entered, release: release, once: &sync.Once{}},
	}
	memo := resultcache.NewMemo()
	run := func(out chan<- any) {
		defer func() { out <- recover() }()
		memo.Run(spec)
	}

	leader, follower := make(chan any, 1), make(chan any, 1)
	go run(leader)
	<-entered
	go run(follower)
	deadline := time.Now().Add(time.Minute)
	for memo.Stats().Dedups == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the leader's run")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	// The leader unwinds with its own panic; the follower fails with the
	// memo's report of it.
	for name, ch := range map[string]chan any{"leader": leader, "follower": follower} {
		select {
		case v := <-ch:
			if v == nil || !strings.Contains(fmt.Sprint(v), "injected controller failure") {
				t.Errorf("%s recovered %v, want the run's panic", name, v)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s still blocked after the leader panicked", name)
		}
	}

	again := make(chan any, 1)
	go run(again)
	select {
	case v := <-again:
		if v == nil {
			t.Error("a fresh request for the failed spec did not recompute")
		}
	case <-time.After(time.Minute):
		t.Fatal("a fresh request blocked on a stranded flight")
	}
	if st := memo.Stats(); st.Entries != 0 {
		t.Errorf("a panicked run left %d stored entries", st.Entries)
	}
}
