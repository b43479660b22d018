package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"mcd/internal/wire"
)

// Every input the benchmark generates comes from a PCG stream keyed by
// the seed and a fixed stream number, so the same seed gives the same
// inputs and the streams do not depend on one another.
const (
	streamGrid = iota + 1
	streamStored
	streamCold
	streamArrivals
	streamSample
)

func rng(seed uint64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<32|index))
}

// Grid scale: the quick Table 6 scale (its interval, off-line iteration
// count and controller parameters) at a measured window small enough
// that a run holds at least one whole exact grid; warmup is half the
// window. The program addresses benchmarks by catalog name, so the seed
// cannot re-seed a profile; it moves the split between warmup and
// measured window instead, keeping their sum (and so the simulated work)
// fixed while changing every cell's measured instructions.
const (
	gridWindow = 20_000
	// splitSteps shifts of window/800 either way: ±500 instructions at
	// full scale.
	splitSteps = 20
	// maxGrids is how many distinct splits, and so grids, a run has.
	maxGrids = 2*splitSteps + 1
)

// gridBenchmarks are the rows of both grid workloads: mcf is
// memory-bound with many stalled cycles per instruction, epic has phased
// floating-point bursts where DVFS acts, adpcm has a small integer
// footprint.
var gridBenchmarks = []string{"mcf", "epic", "adpcm"}

// gridSplit is the split shift, in instructions, of grid i < maxGrids
// of a run at seed. The grids of one run use distinct splits, so no grid
// reuses another's cells or warm snapshots.
func gridSplit(seed uint64, i int, window uint64) int {
	return (rng(seed, streamGrid, 0).Perm(maxGrids)[i] - splitSteps) * int(window/800)
}

// gridAt is the Table 6 grid request at the given window and split
// shift.
func gridAt(window uint64, d int, fidelity string) wire.ExperimentRequest {
	return wire.ExperimentRequest{
		Name:       wire.ExpTable6,
		Quick:      true,
		Window:     uint64(int(window) - d),
		Warmup:     uint64(int(window/2) + d),
		Benchmarks: gridBenchmarks,
		Fidelity:   fidelity,
	}
}

// Serve-mix inputs. Stored specs (pre-stored during set-up) and cold
// specs (new on every request) are small-window exact runs drawn over
// several catalog benchmarks, controllers and parameter values.
const (
	hotN          = 16
	diskN         = 32
	storedWindow  = 2_000
	coldWindow    = 1_500
	serveInterval = 250
	// hitRate and coldRate are the two open-loop Poisson streams'
	// rates, per second: about 40 hits beyond p99 and 24 cold runs
	// beyond p90 in a 20 s run, at about a third of the service's
	// capacity on two CPUs.
	hitRate  = 200.0
	coldRate = 16.0
	// hotShare of the hits go to the hot set; the rest to the
	// disk-resident set.
	hotShare = 0.75
)

var serveBenchmarks = []string{"mcf", "epic", "adpcm", "gsm", "gzip", "swim"}

// controllerDraws lists the controllers the serve specs use and the
// ranges their drawn parameters take (inside each schema's range).
var controllerDraws = []struct {
	name   string
	params []paramRange
}{
	{"attack-decay", []paramRange{{"decay", 0.001, 0.02}, {"reaction", 0.01, 0.15}}},
	{"pi", []paramRange{{"kp", 0.01, 0.5}, {"ki", 0.001, 0.2}}},
	{"coord", []paramRange{{"step_mhz", 5, 200}, {"budget_mhz", 800, 2250}}},
	{"sync", []paramRange{{"freq_mhz", 300, 1000}}},
}

type paramRange struct {
	name   string
	lo, hi float64
}

// drawSpec draws one run request for the given benchmark and
// controller; parameter values keep four significant digits so they
// print and key exactly.
func drawSpec(r *rand.Rand, bench, ctrl int, window uint64) wire.RunRequest {
	c := controllerDraws[ctrl]
	params := map[string]float64{}
	for _, p := range c.params {
		v := p.lo + r.Float64()*(p.hi-p.lo)
		scale := math.Pow(10, 3-math.Floor(math.Log10(v)))
		params[p.name] = math.Round(v*scale) / scale
	}
	return wire.RunRequest{
		Benchmark:  serveBenchmarks[bench],
		Controller: c.name,
		Params:     params,
		Window:     window,
		Warmup:     wire.U64(window / 2),
		Interval:   wire.U64(serveInterval),
	}
}

// request is one scheduled POST /v1/runs.
type request struct {
	due  time.Duration // from the schedule's start
	cold bool
	spec int // index into schedule.stored or schedule.cold
}

// schedule is the serve-mix request stream of one run.
type schedule struct {
	stored []wire.RunRequest // hot set first, then the disk-resident set
	cold   []wire.RunRequest
	reqs   []request // in due order
}

// spec returns the run request a scheduled request sends.
func (s schedule) spec(r request) wire.RunRequest {
	if r.cold {
		return s.cold[r.spec]
	}
	return s.stored[r.spec]
}

// specDrawer draws run requests whose content keys are all distinct.
// Benchmarks and controllers are dealt in seeded blocks (each block a
// permutation of the full set), so every run has the same mix of cheap
// and costly specs and only their order and parameters vary with the
// seed.
type specDrawer struct {
	r              *rand.Rand
	seen           map[string]bool
	benches, ctrls []int // the rest of the current blocks
}

func (d *specDrawer) draw(window uint64) (wire.RunRequest, error) {
	for {
		if len(d.benches) == 0 {
			d.benches = d.r.Perm(len(serveBenchmarks))
		}
		if len(d.ctrls) == 0 {
			d.ctrls = d.r.Perm(len(controllerDraws))
		}
		req := drawSpec(d.r, d.benches[0], d.ctrls[0], window)
		d.benches, d.ctrls = d.benches[1:], d.ctrls[1:]
		key, err := req.Key()
		if err != nil {
			return req, err
		}
		if !d.seen[key] {
			d.seen[key] = true
			return req, nil
		}
	}
}

// specs draws the seed's stored set and its first n cold specs.
func specs(seed uint64, n int) (stored, cold []wire.RunRequest, err error) {
	d := &specDrawer{r: rng(seed, streamStored, 0), seen: map[string]bool{}}
	for i := 0; i < hotN+diskN; i++ {
		req, err := d.draw(storedWindow)
		if err != nil {
			return nil, nil, err
		}
		stored = append(stored, req)
	}
	d.r, d.benches, d.ctrls = rng(seed, streamCold, 0), nil, nil
	for i := 0; i < n; i++ {
		req, err := d.draw(coldWindow)
		if err != nil {
			return nil, nil, err
		}
		cold = append(cold, req)
	}
	return stored, cold, nil
}

// newSchedule generates the run's specs and its two open-loop Poisson
// streams over d. Every spec has its own content key; each cold
// request gets the next cold spec.
func newSchedule(seed uint64, d time.Duration) (schedule, error) {
	var s schedule
	hits := rng(seed, streamArrivals, 0)
	for t := hits.ExpFloat64() / hitRate; t < d.Seconds(); t += hits.ExpFloat64() / hitRate {
		i := hotN + hits.IntN(diskN)
		if hits.Float64() < hotShare {
			i = hits.IntN(hotN)
		}
		s.reqs = append(s.reqs, request{due: time.Duration(t * 1e9), spec: i})
	}
	colds := rng(seed, streamArrivals, 1)
	n := 0
	for t := colds.ExpFloat64() / coldRate; t < d.Seconds(); t += colds.ExpFloat64() / coldRate {
		s.reqs = append(s.reqs, request{due: time.Duration(t * 1e9), cold: true, spec: n})
		n++
	}
	sort.SliceStable(s.reqs, func(i, j int) bool { return s.reqs[i].due < s.reqs[j].due })
	var err error
	s.stored, s.cold, err = specs(seed, n)
	return s, err
}

// sampleIndexes picks k distinct indexes below n for the untimed
// recompute checks.
func sampleIndexes(seed uint64, salt uint64, n, k int) []int {
	if k > n {
		k = n
	}
	p := rng(seed, streamSample, salt).Perm(n)[:k]
	sort.Ints(p)
	return p
}
