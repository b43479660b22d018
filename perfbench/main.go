// Command perfbench is the repository benchmark: it runs one named
// workload at a given seed for a given number of seconds, checks the
// program's outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable report goes
// to standard error. See README.md for the workloads, the metrics and
// what each layer metric is expected to move.
//
//	go build -o perfbench . && ./perfbench --workload table6-exact --seed 1 --seconds 20 --trace 0
//
// The benchmark drives the program only through its public entry points
// (wire, service, fabric, sim, resultcache); per-layer numbers come from
// timing those calls and hooks from this package's own files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed whose outputs are pinned by the committed
// digests in testdata/ref.json.
const defaultSeed = 1

// config is one invocation: which workload, which inputs, how long, and
// whether the per-layer traced mode is on.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// window is the grid workloads' measured window (gridWindow; the
	// tests run smaller grids).
	window uint64
	// traceDir receives the traced run's span file.
	traceDir string
	// workDir holds the serve-mix result store and journal.
	workDir string
}

// outcome is what a workload run reports: the operation counts and
// correctness verdict of the result line, plus the metrics to print.
type outcome struct {
	attempted int
	// failed counts operations that were refused, errored or returned
	// wrong bytes.
	failed int
	// problems lists every failed correctness check; any entry makes
	// the run incorrect and its exit status non-zero.
	problems []string
	metrics  metricSet
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *outcome) error{
	"table6-exact":          runTable6Exact,
	"table6-sampled-fabric": runTable6Fabric,
	"serve-mix":             runServeMix,
}

func main() {
	if job := os.Getenv(generatorEnv); job != "" {
		os.Exit(generatorMain(job))
	}
	var (
		cfg     config
		seed    int64
		traceOn int
		ref     bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: table6-exact, table6-sampled-fabric or serve-mix")
	flag.Int64Var(&seed, "seed", defaultSeed, "input seed (the same seed gives the same inputs)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&traceOn, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&ref, "write-ref", false, "recompute the reference digests and exact CPI/EPI and write "+refPath)
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.trace = traceOn == 1
	cfg.window = gridWindow
	cfg.traceDir = filepath.Join(".bench_build", "trace")
	cfg.workDir = filepath.Join(".bench_build", "work")

	if ref {
		if err := writeRef(refPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || seed < 0 || cfg.seconds <= 0 || (traceOn != 0 && traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seed ≥ 0, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, err := runWorkload(cfg, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// runWorkload runs one workload in a private scratch directory that is
// removed afterwards, so the run leaves nothing behind but its trace.
func runWorkload(cfg config, run func(config, *outcome) error) (*outcome, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	out := &outcome{metrics: metricSet{}}
	steal0, total0 := cpuTicks()
	if err := run(cfg, out); err != nil {
		return nil, err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		fmt.Fprintf(os.Stderr, "  host: %.1f%% of CPU time stolen by the hypervisor during the run\n", float64(steal1-steal0)/float64(total1-total0)*100)
	}
	if out.attempted < 1 {
		return nil, errors.New("workload attempted no operation")
	}
	want := expected(cfg.trace)
	if got := out.metrics.names(); len(got) != len(want) {
		return nil, fmt.Errorf("workload reported metrics %v, want %v", got, want)
	}
	for _, name := range want {
		if _, ok := out.metrics[name]; !ok {
			return nil, fmt.Errorf("workload did not report %s", name)
		}
	}
	return out, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable report to standard error and the
// result line to standard output.
func report(cfg config, out *outcome) error {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(os.Stderr, "  %-32s %14d\n  %-32s %14d\n  %-32s %14.6f ratio\n",
		"attempted", out.attempted, "failed", out.failed,
		"fail_ratio", float64(out.failed)/float64(out.attempted))
	for _, name := range out.metrics.names() {
		m := out.metrics[name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
