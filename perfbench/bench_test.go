package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/wire"
)

func TestMain(m *testing.M) {
	if job := os.Getenv(generatorEnv); job != "" {
		os.Exit(generatorMain(job))
	}
	os.Exit(m.Run())
}

// tiny is a run small enough for a unit test: 1600-instruction grids
// and a fraction of a second of serving.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  0.6,
		trace:    trace,
		window:   1600,
		traceDir: t.TempDir(),
		workDir:  t.TempDir(),
	}
}

// benchmarkUnits reads the metric units BENCHMARK.json declares.
func benchmarkUnits(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEveryMetricReportedWithItsUnit(t *testing.T) {
	e2e, layers := benchmarkUnits(t)
	if len(layers) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(layers), len(perLayer))
	}
	covered := map[string]bool{}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, w, trace)
			out, err := runWorkload(cfg, workloads[w])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if len(out.problems) > 0 || out.failed > 0 {
				t.Errorf("%s trace=%v: %d failed: %v", w, trace, out.failed, out.problems)
			}
			units := e2e
			if trace {
				units = layers
			}
			for _, name := range expected(trace) {
				m, ok := out.metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s not reported", w, trace, name)
					continue
				}
				if m.Unit != units[name] {
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w, trace, name, m.Unit, units[name])
				}
				if (!trace || isTime(m.Unit)) && m.Value <= 0 {
					t.Errorf("%s trace=%v: %s = %v, want > 0", w, trace, name, m.Value)
				}
				covered[name] = true
			}
		}
	}
	for name := range e2e {
		if !covered[name] {
			t.Errorf("end-to-end metric %s is reported by no workload", name)
		}
	}
}

// isTime reports whether a unit is a time: every workload must measure
// such a metric, so it may never read 0.
func isTime(unit string) bool {
	switch unit {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}

func TestCorruptedCellCounted(t *testing.T) {
	g := newGridRun(config{seed: defaultSeed, window: gridWindow}, 0, sim.FidelityExact, false)
	if !pinned(g.req) {
		t.Fatal("the committed reference does not cover the full-scale grid")
	}
	opts := g.req.Options()
	req := wire.RunRequest{
		Benchmark: "adpcm", Controller: "sync", Window: opts.Window, Warmup: wire.U64(opts.Warmup),
		Interval: wire.U64(opts.IntervalLength), SlewNsPerMHz: &opts.SlewNsPerMHz,
	}
	body, _, err := req.RunCachedBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := resultcache.DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.EnergyPJ *= 1.0001
	badBody, err := resultcache.EncodeResult(bad)
	if err != nil {
		t.Fatal(err)
	}
	g.cells = []gridCell{{"adpcm/sync", body, good}, {"adpcm/mcd-base", badBody, bad}}
	var out outcome
	checkGrid(&out, sim.FidelityExact, g)
	if out.failed != 1 || len(out.problems) != 1 {
		t.Fatalf("failed=%d problems=%v, want exactly the corrupted cell", out.failed, out.problems)
	}
}

func TestCorruptedResponseCounted(t *testing.T) {
	s, err := newSchedule(defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	stored := make([][]byte, len(s.stored))
	for i, spec := range s.stored {
		if stored[i], _, err = spec.RunCachedBytes(nil); err != nil {
			t.Fatal(err)
		}
	}
	s.reqs = []request{{spec: 0}, {spec: 1}}
	corrupt := append([]byte(nil), stored[1]...)
	corrupt[len(corrupt)/2] ^= 1
	now := time.Now()
	run := serveRun{sched: s, stored: stored, served: []served{
		{s.reqs[0], generated{Due: now, Done: now, Status: http.StatusOK, XCache: "hit", Digest: digest(stored[0])}},
		{s.reqs[1], generated{Due: now, Done: now, Status: http.StatusOK, XCache: "hit", Digest: digest(corrupt)}},
	}}
	var out outcome
	checkServed(defaultSeed, &out, run)
	if out.attempted != 2 || out.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want the corrupted response counted", out.attempted, out.failed)
	}
	for _, p := range out.problems {
		if strings.HasPrefix(p, "request 0 ") {
			t.Errorf("intact response flagged: %s", p)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, err := newSchedule(3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newSchedule(3, 2*time.Second)
	c, _ := newSchedule(4, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different request streams")
	}
	if reflect.DeepEqual(a.reqs, c.reqs) || reflect.DeepEqual(a.cold, c.cold) || reflect.DeepEqual(a.stored, c.stored) {
		t.Error("different seeds generated the same request stream or spec set")
	}
	grids := func(seed uint64) (out []wire.ExperimentRequest) {
		for i := 0; i < maxGrids; i++ {
			out = append(out, newGridRun(config{seed: seed, window: gridWindow}, i, sim.FidelityExact, false).req)
		}
		return out
	}
	if !reflect.DeepEqual(grids(3), grids(3)) {
		t.Error("the same seed generated different grids")
	}
	if reflect.DeepEqual(grids(3), grids(4)) {
		t.Error("different seeds generated the same grid sequence")
	}
	seen := map[uint64]bool{}
	for _, g := range grids(3) {
		if seen[g.Window] {
			t.Errorf("two grids of one run share window %d", g.Window)
		}
		seen[g.Window] = true
	}
}
