package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"mcd/internal/bench"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/wire"
	"mcd/internal/workload"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median. A grid set-up takes tens of milliseconds, where timer and
// scheduler noise is large, so a median of three moved by a third
// between runs.
const setupReps = 9

// configLabels names a Table 6 row's eight configurations in the order
// gridCells lists them.
var configLabels = []string{
	"sync", "mcd-base", "attack-decay", "dynamic-1", "dynamic-5",
	"global-ad", "global-d1", "global-d5",
}

// gridCell is one finished cell of a Table 6 grid.
type gridCell struct {
	label string // benchmark/configuration
	body  []byte // canonical result encoding
	res   stats.Result
}

// gridCells flattens an experiment result into its cells, re-encoding
// each Result canonically (the encoding round-trips exactly, so these
// are the bytes the engine produced).
func gridCells(r wire.ExperimentResult) ([]gridCell, error) {
	var out []gridCell
	for _, c := range r.Comparisons {
		for i, res := range []stats.Result{c.Sync, c.MCDBase, c.AD, c.Dyn1, c.Dyn5, c.GlobalAD, c.GlobalD1, c.GlobalD5} {
			b, err := resultcache.EncodeResult(res)
			if err != nil {
				return nil, err
			}
			out = append(out, gridCell{c.Benchmark + "/" + configLabels[i], b, res})
		}
	}
	if want := len(gridBenchmarks) * len(configLabels); len(out) != want {
		return nil, fmt.Errorf("grid has %d cells, want %d", len(out), want)
	}
	return out, nil
}

// gridRun is one timed grid of a run.
type gridRun struct {
	index  int // position in the run
	split  int // split shift, which names the grid in the reference
	req    wire.ExperimentRequest
	traced bool
	wall   float64 // seconds from submission to the last cell
	instr  uint64  // instructions simulated meanwhile, warmup and compound searches included
	cells  []gridCell
	start  time.Time
	root   int64 // the grid's span, when traced
}

func newGridRun(cfg config, i int, fidelity string, traced bool) gridRun {
	d := gridSplit(cfg.seed, i, cfg.window)
	return gridRun{index: i, split: d, req: gridAt(cfg.window, d, fidelity), traced: traced}
}

// digest is the short content hash the reference file records.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// cellRefKey names a cell of the grid at split shift d in the reference
// file.
func cellRefKey(fidelity string, d int, label string) string {
	return fmt.Sprintf("%s/%d/%s", fidelity, d, label)
}

// checkGrid validates one grid's cells: structural sanity, and byte
// identity against the committed digests. The reference covers every
// split at the full scale, so every grid of every seed is pinned. A
// wrong cell is a failed operation.
func checkGrid(out *outcome, fidelity string, g gridRun) {
	pin := pinned(g.req)
	window := g.req.Window
	for _, c := range g.cells {
		bad := ""
		switch {
		case c.res.Instructions < window || c.res.TimePS <= 0 || c.res.EnergyPJ <= 0:
			bad = "implausible result"
		case c.res.Benchmark != profileName(c.label):
			bad = "benchmark mismatch " + c.res.Benchmark
		case (fidelity == sim.FidelitySampled) != (c.res.DetailedIntervals > 0):
			bad = "fidelity mismatch"
		}
		if want := reference.Cells[cellRefKey(fidelity, g.split, c.label)]; bad == "" && pin && want != digest(c.body) {
			bad = "digest " + digest(c.body) + " != reference " + want
		}
		if bad != "" {
			out.failed++
			out.fail("grid %d cell %s: %s", g.index, c.label, bad)
		}
	}
}

// profileName is the workload profile a cell label's benchmark runs,
// the name its Result carries.
func profileName(label string) string {
	b, _ := workload.Lookup(label[:strings.IndexByte(label, '/')])
	return b.Profile.Name
}

// warmEngine runs one short simulation per grid benchmark, so the first
// timed cell does not pay the engine's lazy allocation.
func warmEngine() error {
	for _, b := range gridBenchmarks {
		req := wire.RunRequest{Benchmark: b, Controller: "mcd", Window: 1000, Warmup: wire.U64(500), Interval: wire.U64(250)}
		if _, _, err := req.RunCachedBytes(nil); err != nil {
			return err
		}
	}
	return nil
}

// gridLoop runs grids until the measuring time or the distinct splits
// are spent, but at least minGrids (a traced run at least two, as it
// alternates untraced and traced grids), recording each.
func gridLoop(cfg config, minGrids int, run func(i int, traced bool) (gridRun, error)) ([]gridRun, error) {
	var runs []gridRun
	if cfg.trace {
		minGrids = max(minGrids, 2)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < maxGrids && (i < minGrids || time.Now().Before(deadline)); i++ {
		g, err := run(i, cfg.trace && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("grid %d: %w", i, err)
		}
		runs = append(runs, g)
	}
	return runs, nil
}

// gridEndToEnd reports the end-to-end metrics of a grid workload.
func gridEndToEnd(out *outcome, setups []float64, runs []gridRun, rss float64) {
	var walls []float64
	for _, g := range runs {
		walls = append(walls, g.wall)
		fmt.Fprintf(os.Stderr, "  grid %d (split %+d): %.3f s\n", g.index, g.split, g.wall)
	}
	out.metrics.set("setup_s", median(setups))
	out.metrics.set("op_p50_ms", median(walls)*1e3)
	out.metrics.set("peak_rss_mb", rss)
}

// gridMips is the median over a traced run's untraced grids of the
// instructions simulated per host second, compound searches included.
func gridMips(runs []gridRun) float64 {
	var mips []float64
	for _, g := range runs {
		if !g.traced {
			mips = append(mips, float64(g.instr)/g.wall/1e6)
		}
	}
	return median(mips)
}

// traceOverhead compares the traced grids' median wall time with the
// untraced ones', leaving out the first grid (which also pays the
// process's first-use costs) when another untraced grid ran.
func traceOverhead(runs []gridRun) float64 {
	var on, off []float64
	if len(runs) > 2 {
		runs = runs[1:]
	}
	for _, g := range runs {
		if g.traced {
			on = append(on, g.wall)
		} else {
			off = append(off, g.wall)
		}
	}
	return (median(on)/median(off) - 1) * 100
}

// exactWorkers is the exact grid's runner worker count. One worker
// leaves the host's second CPU to the Go runtime and the system: with a
// worker per CPU, ten runs' grid medians spread 0.14-0.15 (interquartile
// range over median) on a 2-CPU shared host, with one worker 0.09. The
// sampled-fabric workload keeps a parallel fan-out.
const exactWorkers = 1

func runTable6Exact(cfg config, out *outcome) error {
	workers := exactWorkers
	setups := make([]float64, setupReps)
	for i := range setups {
		t := time.Now()
		if err := gridAt(cfg.window, gridSplit(cfg.seed, 0, cfg.window), sim.FidelityExact).Validate(); err != nil {
			return err
		}
		if err := warmEngine(); err != nil {
			return err
		}
		setups[i] = since(t)
	}

	tr := newTracer(cfg.trace)
	log := &cellLog{}
	runs, err := gridLoop(cfg, 1, func(i int, traced bool) (gridRun, error) {
		g := newGridRun(cfg, i, sim.FidelityExact, traced)
		opts := g.req.Options()
		opts.Workers = workers
		g.start = time.Now()
		var root open
		if traced {
			root = tr.startAt("grid", fmt.Sprintf("grid-%d", i), 0, g.start)
			g.root = root.id
			opts.Exec = func(ctx context.Context, c bench.Cell) ([]byte, error) {
				cs := tr.start("runner.cell", c.Label, root.id)
				defer cs.end()
				return wire.ExecAdapter(func(_ context.Context, _ string, req wire.RunRequest) ([]byte, error) {
					return runCell(tr, log, c.Label, cs.id, req)
				})(ctx, c)
			}
		}
		before := sim.SimulatedInstructions()
		res, err := wire.RunExperimentRequest(opts, g.req)
		g.wall = since(g.start)
		g.instr = sim.SimulatedInstructions() - before
		root.end()
		if err != nil {
			return g, err
		}
		g.cells, err = gridCells(res)
		return g, err
	})
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	for _, g := range runs {
		out.attempted += len(g.cells)
		checkGrid(out, sim.FidelityExact, g)
	}
	if !cfg.trace {
		gridEndToEnd(out, setups, runs, rss)
		return nil
	}
	spans := tr.snapshot()
	cells := named(spans, "runner.cell")
	runnerLayers(out, runs, cells, cells, workers)
	cellLayers(out, spans, "runner.cell", log)
	traced := tracedGrids(runs)
	layersFromResults(out, traced, float64(len(traced)))
	out.metrics.set("sim_mips", gridMips(runs))
	out.metrics.zero("cpi_err_pct", "epi_err_pct")
	fabricLayersAbsent(out)
	serveLayersAbsent(out)
	out.metrics.set("trace.overhead_pct", traceOverhead(runs))
	return saveTrace(cfg, spans)
}

// saveTrace writes the traced run's spans and names the file on
// standard error.
func saveTrace(cfg config, spans []span) error {
	path, err := writeTrace(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed), spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s (%d spans)\n", path, len(spans))
	return nil
}

// cellStat is what the session hooks learn about one cell they ran.
type cellStat struct {
	bench   string
	stepped uint64 // instructions Step simulated: warmup (unless restored) plus the measured window
	stepNs  float64
}

// cellLog collects cellStats from concurrently running cells.
type cellLog struct {
	mu    sync.Mutex
	stats []cellStat
}

func (l *cellLog) add(s cellStat) {
	l.mu.Lock()
	l.stats = append(l.stats, s)
	l.mu.Unlock()
}

// runCell executes one run request in-process through the spec and
// session API, with one span per call: compound preparation inside
// Spec, the session's Open (warm build or restore at sampled
// fidelity), the stepping, Close, and the canonical encoding.
func runCell(tr *tracer, log *cellLog, group string, parent int64, req wire.RunRequest) ([]byte, error) {
	s := tr.start("control.spec", group, parent)
	spec, err := req.Spec()
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.start("sim.open", group, parent)
	ses, err := sim.Open(spec)
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.start("sim.step", group, parent)
	t := time.Now()
	ses.Step(-1)
	stepNs := float64(time.Since(t).Nanoseconds())
	s.end()
	s = tr.start("sim.close", group, parent)
	r := ses.Close()
	s.end()
	s = tr.start("resultcache.encode", group, parent)
	b, err := resultcache.EncodeResult(r)
	s.end()
	stepped := r.Instructions
	if !spec.Sampled() {
		stepped += spec.Warmup
	}
	log.add(cellStat{bench: req.Normalize().Benchmark, stepped: stepped, stepNs: stepNs})
	return b, err
}

func tracedGrids(runs []gridRun) []gridRun {
	var out []gridRun
	for _, g := range runs {
		if g.traced {
			out = append(out, g)
		}
	}
	return out
}

// runnerLayers reports the grid fan-out per traced grid: cells run, the
// share of a cell's time from submission spent waiting for a worker
// (the Global cells' phase is submitted when the last phase-1 cell
// finishes), how busy the workers were, and the longest cell's share of
// the grid's wall time. A cell is a fresh result, so the cells' times
// from submission to finish are the cold latencies. cellSpans are the
// per-cell spans, starting when a runner worker took the cell;
// busySpans are the spans during which one of the workers' simulation
// slots was occupied.
func runnerLayers(out *outcome, runs []gridRun, cellSpans, busySpans []span, workers int) {
	traced := tracedGrids(runs)
	n := float64(len(traced))
	var waits, ran, busy, walls, tail float64
	var cold []float64
	for _, g := range traced {
		var mine []span
		for _, s := range cellSpans {
			if s.Parent == g.root {
				mine = append(mine, s)
			}
		}
		phase2 := g.start
		for _, s := range mine {
			if !isGlobal(s.Group) && s.End.After(phase2) {
				phase2 = s.End
			}
		}
		maxCell := 0.0
		for _, s := range mine {
			submit := g.start
			if isGlobal(s.Group) {
				submit = phase2
			}
			waits += s.Start.Sub(submit).Seconds()
			ran += s.dur().Seconds()
			cold = append(cold, s.End.Sub(submit).Seconds()*1e3)
			maxCell = math.Max(maxCell, s.dur().Seconds())
		}
		tail += maxCell / g.wall
		walls += g.wall
	}
	for _, s := range busySpans {
		busy += s.dur().Seconds()
	}
	out.metrics.set("runner.cells", float64(len(cellSpans))/n)
	out.metrics.set("runner.wait_share", waits/math.Max(waits+ran, 1e-12))
	out.metrics.set("runner.busy_frac", busy/(float64(workers)*walls))
	out.metrics.set("runner.tail_share", tail/n)
	coldLatencies(out, cold)
}

// coldLatencies reports the median and 90th percentile of the fresh
// results' latencies, in ms, warning when fewer than tailSamples lie
// beyond the percentile.
func coldLatencies(out *outcome, ms []float64) {
	if !enoughFor(len(ms), 0.9) {
		fmt.Fprintf(os.Stderr, "perfbench: %d fresh results leave fewer than %d samples beyond p90\n", len(ms), tailSamples)
	}
	out.metrics.set("cold_p50_ms", quantile(ms, 0.5))
	out.metrics.set("cold_p90_ms", quantile(ms, 0.9))
}

// isGlobal reports whether a cell label or key group belongs to a
// Global(·) cell.
func isGlobal(group string) bool { return strings.Contains(group, "/global") }

// cellLayers reports the layers under each in-process cell as shares
// of the cells' time (cell spans are called cellName): compound
// preparation inside Spec, the session's Open and Step, and the
// canonical encoding; and the engine's stepping speed per benchmark.
func cellLayers(out *outcome, spans []span, cellName string, log *cellLog) {
	cells := math.Max(sum(seconds(named(spans, cellName))), 1e-12)
	share := func(name string) float64 { return sum(seconds(named(spans, name))) / cells }
	out.metrics.set("control.spec_share", share("control.spec"))
	out.metrics.set("sim.open_share", share("sim.open"))
	out.metrics.set("sim.step_share", share("sim.step"))
	out.metrics.set("resultcache.encode_share", share("resultcache.encode"))
	stepKips(out, log)
}

// layersFromResults reports what the traced grids' cells simulated,
// read from their results.
func layersFromResults(out *outcome, traced []gridRun, n float64) {
	var instr, ref, detailed, ff float64
	for _, g := range traced {
		for _, c := range g.cells {
			instr += float64(c.res.Instructions)
			ref += c.res.TimePS / 1000
			detailed += float64(c.res.DetailedIntervals)
			ff += float64(c.res.SampledIntervals)
		}
	}
	out.metrics.set("sim.instructions", instr/n)
	out.metrics.set("sim.ref_cycles", ref/n)
	out.metrics.set("sim.detailed_intervals", detailed/n)
	out.metrics.set("sim.ff_intervals", ff/n)
	ratio := 0.0
	if detailed+ff > 0 {
		ratio = ff / (detailed + ff)
	}
	out.metrics.set("sim.ff_ratio", ratio)
}

// stepKips reports thousands of instructions stepped per host second,
// per grid benchmark (0 when no session of it was stepped).
func stepKips(out *outcome, log *cellLog) {
	for _, b := range gridBenchmarks {
		var ns, instr float64
		if log != nil {
			for _, s := range log.stats {
				if s.bench == b {
					ns += s.stepNs
					instr += float64(s.stepped)
				}
			}
		}
		v := 0.0
		if ns > 0 {
			v = instr / 1000 / (ns / 1e9)
		}
		out.metrics.set("pipeline.kips."+b, v)
	}
}

// cellLayersAbsent reports the in-process cell layers as zero on a
// workload whose cells run inside fabric workers, out of the
// benchmark's reach.
func cellLayersAbsent(out *outcome) {
	out.metrics.zero("control.spec_share", "sim.open_share", "sim.step_share", "resultcache.encode_share")
	stepKips(out, nil)
}
