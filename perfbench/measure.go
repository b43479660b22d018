package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number with its unit, as the result line
// carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) { m[name] = metric{v, unitOf(name)} }

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailSamples is how many samples must lie beyond a reported
// percentile; a run with fewer samples reports an error instead.
const tailSamples = 10

// enoughFor reports whether n samples leave tailSamples beyond the
// q-quantile.
func enoughFor(n int, q float64) bool {
	return float64(n)*(1-q) >= tailSamples
}

// cpuTicks reads the machine's stolen and total CPU time from
// /proc/stat, in clock ticks (zeros if unreadable). Steal is time the
// hypervisor ran something else while this machine's CPUs wanted to
// run: on a shared host it is the main source of run-to-run noise.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// endToEnd lists the end-to-end metrics every workload reports. Each
// workload's user waits on one kind of operation, and op_p50_ms is its
// median: a whole Table 6 grid (submission to last cell) on the grid
// workloads, a stored-result POST /v1/runs (due time to response) on
// serve-mix.
var endToEnd = []string{"setup_s", "op_p50_ms", "peak_rss_mb"}

// perLayer lists the per-layer metrics every traced run reports. Only
// the fresh-result latencies are times: every workload computes fresh
// results. A layer's time is otherwise reported as its share of the
// enclosing operation, so a layer a workload does not pass through
// reads a share or count of 0, not a time.
var perLayer = []string{
	"cold_p50_ms", "cold_p90_ms", "hit_p99_over_p50",
	"runner.cells", "runner.busy_frac", "runner.wait_share", "runner.tail_share",
	"control.spec_share", "sim.open_share", "sim.step_share",
	"sim_mips", "sim.instructions", "sim.ref_cycles",
	"sim.detailed_intervals", "sim.ff_intervals", "sim.ff_ratio", "cpi_err_pct", "epi_err_pct",
	"pipeline.kips.mcf", "pipeline.kips.epic", "pipeline.kips.adpcm",
	"fabric.overhead_share", "fabric.dispatches", "fabric.hedges",
	"fabric.steals", "fabric.requeues", "fabric.local_runs", "fabric.useful_ratio",
	"wire.decode_key_share", "resultcache.encode_share",
	"resultcache.mem_hits", "resultcache.disk_hits", "resultcache.misses", "resultcache.evictions", "resultcache.write_errors",
	"service.hit_handler_share", "service.queue_share", "service.run_share", "service.rejected",
	"journal.records", "journal.bytes",
	"loadgen.late_frac", "loadgen.hit_n", "loadgen.cold_n", "trace.overhead_pct",
}

// units gives each metric's unit.
var units = map[string]string{
	"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
	"cold_p50_ms": "ms", "cold_p90_ms": "ms",
	"sim_mips": "Minstr/s", "cpi_err_pct": "%", "epi_err_pct": "%", "trace.overhead_pct": "%",
	"pipeline.kips.mcf": "kinstr/s", "pipeline.kips.epic": "kinstr/s", "pipeline.kips.adpcm": "kinstr/s",
	"journal.bytes": "bytes",
}

// unitOf returns a metric's unit: the units table's entry, else ratio
// for shares, fractions and ratios, else count.
func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	for _, suffix := range []string{"_share", "_frac", "_ratio", "_over_p50"} {
		if strings.HasSuffix(name, suffix) {
			return "ratio"
		}
	}
	return "count"
}

// expected returns the metric names a run of the workload must report.
func expected(trace bool) []string {
	if trace {
		return perLayer
	}
	return endToEnd
}

// zero reports each named metric as 0: a layer the workload does not
// pass through did no work.
func (m metricSet) zero(names ...string) {
	for _, n := range names {
		m.set(n, 0)
	}
}
