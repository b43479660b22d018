package metrics

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterAndGaugeRender(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "a counter")
	g := r.Gauge("test_depth", "a gauge")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters never decrease
	g.Set(4)
	g.Add(-1.5)

	out := render(t, r)
	for _, want := range []string{
		"# HELP test_total a counter",
		"# TYPE test_total counter",
		"test_total 3",
		"# TYPE test_depth gauge",
		"test_depth 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestVecSeriesSortedAndEscaped(t *testing.T) {
	r := New()
	v := r.CounterVec("jobs_total", "by kind", "kind")
	v.With("stream").Add(2)
	v.With("batch").Inc()
	v.With(`we"ird\n`).Inc()

	out := render(t, r)
	iBatch := strings.Index(out, `jobs_total{kind="batch"} 1`)
	iStream := strings.Index(out, `jobs_total{kind="stream"} 2`)
	if iBatch < 0 || iStream < 0 || iBatch > iStream {
		t.Fatalf("series missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, `jobs_total{kind="we\"ird\\n"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	// One TYPE line per family, not per series.
	if n := strings.Count(out, "# TYPE jobs_total"); n != 1 {
		t.Errorf("TYPE emitted %d times", n)
	}
}

func TestFuncFamiliesSampledAtScrape(t *testing.T) {
	r := New()
	val := 1.0
	r.GaugeFunc("live", "sampled", func() float64 { return val })
	r.GaugeVecFunc("states", "by state", "state", func() map[string]float64 {
		return map[string]float64{"queued": 2, "running": val}
	})
	if !strings.Contains(render(t, r), "live 1") {
		t.Fatal("first scrape missing value")
	}
	val = 7
	out := render(t, r)
	if !strings.Contains(out, "live 7") || !strings.Contains(out, `states{state="running"} 7`) {
		t.Errorf("second scrape did not resample:\n%s", out)
	}
	if !strings.Contains(out, `states{state="queued"} 2`) {
		t.Errorf("vec func series missing:\n%s", out)
	}
}

func TestFamiliesRenderInNameOrder(t *testing.T) {
	r := New()
	r.Counter("zzz_total", "")
	r.Counter("aaa_total", "")
	out := render(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := New()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "")
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "") // must not panic, and the instrument still works
	c.Inc()
	if c.Value() != 1 {
		t.Error("counter from nil registry broken")
	}
	r.GaugeFunc("y", "", func() float64 { return 1 })
	if err := r.Render(&strings.Builder{}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	v := r.CounterVec("v", "", "l")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || v.With("a").Value() != 8000 {
		t.Errorf("lost updates: c=%v v=%v", c.Value(), v.With("a").Value())
	}
}

func TestHistogramRender(t *testing.T) {
	r := New()
	v := r.HistogramVec("dur_seconds", "phase durations", "phase", []float64{0.1, 1, 10})
	v.With("queue") // pre-touched: scrapes as a zero-shaped family
	run := v.With("run")
	run.Observe(0.05)
	run.Observe(0.5)
	run.Observe(5)
	run.Observe(50)

	out := render(t, r)
	for _, want := range []string{
		"# HELP dur_seconds phase durations",
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{phase="queue",le="0.1"} 0`,
		`dur_seconds_bucket{phase="queue",le="+Inf"} 0`,
		`dur_seconds_sum{phase="queue"} 0`,
		`dur_seconds_count{phase="queue"} 0`,
		`dur_seconds_bucket{phase="run",le="0.1"} 1`,
		`dur_seconds_bucket{phase="run",le="1"} 2`,
		`dur_seconds_bucket{phase="run",le="10"} 3`,
		`dur_seconds_bucket{phase="run",le="+Inf"} 4`,
		`dur_seconds_sum{phase="run"} 55.55`,
		`dur_seconds_count{phase="run"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryLandsInLeBucket(t *testing.T) {
	r := New()
	v := r.HistogramVec("h", "", "phase", []float64{1})
	v.With("x").Observe(1) // le="1" is inclusive
	out := render(t, r)
	if !strings.Contains(out, `h_bucket{phase="x",le="1"} 1`) {
		t.Fatalf("observation at the bound must count in its le bucket:\n%s", out)
	}
}

func TestHistogramMean(t *testing.T) {
	h := New().HistogramVec("h", "", "phase", []float64{1}).With("x")
	if _, ok := h.Mean(); ok {
		t.Fatal("empty histogram reported a mean")
	}
	h.Observe(0.5)
	h.Observe(2.5)
	if mean, ok := h.Mean(); !ok || mean != 1.5 {
		t.Fatalf("Mean() = %v, %v; want 1.5, true", mean, ok)
	}
}

func TestHistogramNilRegistry(t *testing.T) {
	var r *Registry
	v := r.HistogramVec("h", "", "phase", []float64{1})
	v.With("x").Observe(2) // must not panic
}
