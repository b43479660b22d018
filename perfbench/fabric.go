package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcd/internal/fabric"
	"mcd/internal/metrics"
	"mcd/internal/resultcache"
	"mcd/internal/service"
	"mcd/internal/sim"
	"mcd/internal/wire"
)

// Fleet shape: two loopback workers with one slot each, and a service
// whose experiment jobs keep twice the fleet's slots in flight, so the
// coordinator's queues hold work to steal and hedge.
const (
	fabricWorkers   = 2
	fabricJobWorker = 2 * fabricWorkers
)

// fabricRig is an in-process service in coordinator mode with its
// workers, each behind its own loopback HTTP server. In-process workers
// share the process-global warm-snapshot cache, which separate hosts
// would not: a warm snapshot one worker builds is restored by the other.
type fabricRig struct {
	reg     *metrics.Registry
	coord   *fabric.Coordinator
	mgr     *service.Manager
	workers []*fabric.Worker
	servers []*http.Server
	base    string
	client  *http.Client
}

// startFabric builds the rig. dispatch wraps the coordinator's Execute
// as the service's Dispatch hook; worker wraps each worker's handler.
func startFabric(dispatch func(service.DispatchFunc) service.DispatchFunc, worker func(id string, h http.Handler) http.Handler) (*fabricRig, error) {
	r := &fabricRig{reg: metrics.New(), client: &http.Client{}}
	coordCache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		return nil, err
	}
	r.coord = fabric.NewCoordinator(fabric.Options{Cache: coordCache, Metrics: r.reg})
	coord := r.coord
	r.mgr = service.New(service.Options{
		Workers:  fabricJobWorker,
		Metrics:  r.reg,
		Dispatch: dispatch(coord.Execute),
		Gate: func() error {
			if coord.Saturated() {
				return service.ErrFleet
			}
			return nil
		},
	})
	mux := http.NewServeMux()
	mux.Handle("POST /v1/fabric/register", coord.Handler())
	mux.Handle("/", service.NewHandler(r.mgr))
	if r.base, err = r.serve(mux); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < fabricWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		id := fmt.Sprintf("w%d", i)
		url := "http://" + ln.Addr().String()
		cache, err := resultcache.New(resultcache.Options{})
		if err != nil {
			r.close()
			return nil, err
		}
		w := fabric.NewWorker(fabric.WorkerOptions{ID: id, Advertise: url, Coordinator: r.base, Slots: 1, Cache: cache})
		r.workers = append(r.workers, w)
		r.serveOn(ln, worker(id, w.Handler()))
		w.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.coord.Workers() < fabricWorkers {
		if time.Now().After(deadline) {
			r.close()
			return nil, errors.New("fabric workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return r, nil
}

func (r *fabricRig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.serveOn(ln, h)
	return "http://" + ln.Addr().String(), nil
}

func (r *fabricRig) serveOn(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	r.servers = append(r.servers, srv)
	go srv.Serve(ln)
}

// close stops the workers' heartbeats, the servers, the manager and the
// coordinator, waiting for each.
func (r *fabricRig) close() {
	for _, w := range r.workers {
		w.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range r.servers {
		s.Shutdown(ctx)
	}
	if r.mgr != nil {
		r.mgr.Close()
	}
	if r.coord != nil {
		r.coord.Close()
	}
	r.client.CloseIdleConnections()
}

// runGrid submits one experiment, follows its event stream to the
// terminal snapshot, and fetches the result body.
func (r *fabricRig) runGrid(req wire.ExperimentRequest) (wire.ExperimentResult, time.Duration, error) {
	var res wire.ExperimentResult
	body, err := json.Marshal(req)
	if err != nil {
		return res, 0, err
	}
	start := time.Now()
	resp, err := r.client.Post(r.base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, 0, err
	}
	var snap service.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return res, 0, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	resp, err = r.client.Get(r.base + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		return res, 0, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for !snap.Terminal() && sc.Scan() {
		snap = service.Snapshot{}
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			resp.Body.Close()
			return res, 0, fmt.Errorf("events: %w", err)
		}
	}
	wall := time.Since(start)
	resp.Body.Close()
	if snap.State != service.Done {
		return res, wall, fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	resp, err = r.client.Get(r.base + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		return res, wall, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return res, wall, fmt.Errorf("result: %w", err)
	}
	return res, wall, nil
}

// steals reads the coordinator's steal counter from the registry the
// benchmark handed it: a steal happens inside the coordinator's queues,
// where no hook of the benchmark can see it.
func (r *fabricRig) steals() float64 {
	var buf bytes.Buffer
	if r.reg.Render(&buf) != nil {
		return 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "mcd_fabric_steals_total "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// dispatched is one cell the service handed to the fabric.
type dispatched struct {
	key        string
	req        wire.RunRequest
	body       []byte
	hit        bool
	start, end time.Time
}

// attempt is one execute request a worker served.
type attempt struct {
	key       string
	worker    string
	start     time.Time
	end       time.Time
	status    int
	cancelled bool
}

// fabricProbe records what crosses the service's Dispatch hook (every
// grid) and the workers' handlers (traced grids only).
type fabricProbe struct {
	mu sync.Mutex
	// active traces the grid in progress; nil while an untraced grid
	// runs.
	active   *tracer
	root     int64 // current grid's span
	cells    []dispatched
	byKey    map[string]int64 // execute span per key, for worker spans' parents
	attempts []attempt
}

func (p *fabricProbe) dispatch(next service.DispatchFunc) service.DispatchFunc {
	return func(ctx context.Context, key string, req wire.RunRequest) ([]byte, bool, error) {
		start := time.Now()
		p.mu.Lock()
		group := req.Normalize().Benchmark + "/" + req.ControllerName() + "#" + shortKey(key)
		s := p.active.startAt("fabric.execute", group, p.root, start)
		if p.active != nil {
			p.byKey[key] = s.id
		}
		p.mu.Unlock()
		body, hit, err := next(ctx, key, req)
		end := time.Now()
		s.endAt(end)
		p.mu.Lock()
		p.cells = append(p.cells, dispatched{key: key, req: req, body: body, hit: hit, start: start, end: end})
		p.mu.Unlock()
		return body, hit, err
	}
}

// worker times each execute request a worker serves, as a span under
// the cell's execute span.
func (p *fabricProbe) worker(id string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		tr := p.active
		p.mu.Unlock()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
			return
		}
		var exec wire.FabricExecute
		json.Unmarshal(body, &exec)
		r.Body = io.NopCloser(bytes.NewReader(body))
		p.mu.Lock()
		parent := p.byKey[exec.Key]
		p.mu.Unlock()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		a := attempt{key: exec.Key, worker: id, start: time.Now()}
		s := tr.startAt("fabric.worker", id+"#"+shortKey(exec.Key), parent, a.start)
		next.ServeHTTP(rec, r)
		a.end = time.Now()
		s.endAt(a.end)
		a.status, a.cancelled = rec.status, r.Context().Err() != nil
		p.mu.Lock()
		p.attempts = append(p.attempts, a)
		p.mu.Unlock()
	})
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// statusRecorder captures a handler's response status.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// errGrids is how many grids the sampled error is taken over: the run's
// first ones, so the error repeats exactly at a seed. A run makes at
// least that many grids.
const errGrids = 12

// fabricSampleChecks is how many dispatched cells of the first grid are
// recomputed in-process and compared byte for byte.
const fabricSampleChecks = 3

func runTable6Fabric(cfg config, out *outcome) error {
	tr := newTracer(cfg.trace)
	probe := &fabricProbe{byKey: map[string]int64{}}
	setups := make([]float64, setupReps)
	var rig *fabricRig
	for i := range setups {
		t := time.Now()
		worker := func(_ string, h http.Handler) http.Handler { return h }
		if cfg.trace {
			worker = probe.worker
		}
		r, err := startFabric(probe.dispatch, worker)
		if err != nil {
			return err
		}
		if err := warmEngine(); err != nil {
			r.close()
			return err
		}
		setups[i] = since(t)
		if i < setupReps-1 {
			r.close()
		} else {
			rig = r
		}
	}
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()

	var firstCells, tracedCells []dispatched
	steals := 0.0
	runs, err := gridLoop(cfg, errGrids, func(i int, traced bool) (gridRun, error) {
		g := newGridRun(cfg, i, sim.FidelitySampled, traced)
		probe.mu.Lock()
		probe.cells = nil
		g.start = time.Now()
		var root open
		if traced {
			root = tr.startAt("grid", fmt.Sprintf("grid-%d", i), 0, g.start)
			g.root = root.id
		}
		probe.root, probe.active = root.id, nil
		if traced {
			probe.active = tr
		}
		probe.mu.Unlock()
		before, stolen := sim.SimulatedInstructions(), rig.steals()
		res, wall, err := rig.runGrid(g.req)
		g.wall = wall.Seconds()
		g.instr = sim.SimulatedInstructions() - before
		if traced {
			steals += rig.steals() - stolen
		}
		root.endAt(g.start.Add(wall))
		if err != nil {
			return g, err
		}
		probe.mu.Lock()
		if i == 0 {
			firstCells = probe.cells
		}
		if traced {
			tracedCells = append(tracedCells, probe.cells...)
		}
		probe.mu.Unlock()
		g.cells, err = gridCells(res)
		return g, err
	})
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	rig.close()
	rig = nil

	for _, g := range runs {
		out.attempted += len(g.cells)
		checkGrid(out, sim.FidelitySampled, g)
	}
	checkDispatched(cfg.seed, out, firstCells, runs[0].cells)

	if !cfg.trace {
		gridEndToEnd(out, setups, runs, rss)
		return nil
	}
	cpi, epi, err := sampledError(runs[:errGrids])
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	runnerLayers(out, runs, named(spans, "fabric.execute"), named(spans, "fabric.worker"), fabricWorkers)
	cellLayersAbsent(out)
	traced := tracedGrids(runs)
	layersFromResults(out, traced, float64(len(traced)))
	out.metrics.set("sim_mips", gridMips(runs))
	out.metrics.set("cpi_err_pct", cpi)
	out.metrics.set("epi_err_pct", epi)
	fabricLayers(out, tracedCells, probe.attempts, float64(len(traced)), steals/float64(len(traced)))
	serveLayersAbsent(out)
	out.metrics.set("trace.overhead_pct", traceOverhead(runs))
	return saveTrace(cfg, spans)
}

// checkDispatched compares a seeded sample of the first grid's
// dispatched cells with an in-process recompute, and checks that every
// dispatched body is one of the grid's cells. The grid's own cells are
// counted by checkGrid, so a mismatch here is a problem, not a second
// failed operation.
func checkDispatched(seed uint64, out *outcome, cells []dispatched, grid []gridCell) {
	have := map[string]bool{}
	for _, c := range grid {
		have[string(c.body)] = true
	}
	for _, c := range cells {
		if !have[string(c.body)] {
			out.fail("dispatched cell %s is not in the grid result", shortKey(c.key))
		}
	}
	for _, i := range sampleIndexes(seed, 1, len(cells), fabricSampleChecks) {
		c := cells[i]
		want, _, err := c.req.RunCachedBytes(nil)
		if err != nil || !bytes.Equal(want, c.body) {
			out.fail("dispatched cell %s differs from an in-process recompute (%v)", shortKey(c.key), err)
		}
	}
}

// exactRefKey names a cell's exact CPI and EPI in the reference file.
func exactRefKey(d int, label string) string { return fmt.Sprintf("%d/%s", d, label) }

// sampledError is the mean absolute relative error of the grids'
// sampled cells' CPI and EPI against the exact cell of the same grid,
// in percent. The exact CPI and EPI come from the committed reference at
// full scale, and are computed in-process (untimed) at any other.
func sampledError(runs []gridRun) (cpi, epi float64, err error) {
	n := 0
	for _, g := range runs {
		exact := reference.Exact
		if !pinned(g.req) {
			req := g.req
			req.Fidelity = sim.FidelityExact
			res, err := wire.RunExperimentRequest(req.Options(), req)
			if err != nil {
				return 0, 0, err
			}
			cells, err := gridCells(res)
			if err != nil {
				return 0, 0, err
			}
			exact = map[string][2]float64{}
			for _, c := range cells {
				exact[exactRefKey(g.split, c.label)] = [2]float64{c.res.CPI(), c.res.EPI()}
			}
		}
		for _, c := range g.cells {
			r, ok := exact[exactRefKey(g.split, c.label)]
			if !ok || r[0] == 0 || r[1] == 0 {
				return 0, 0, fmt.Errorf("no exact reference for split %d cell %s (regenerate it with -write-ref)", g.split, c.label)
			}
			cpi += math.Abs(c.res.CPI()/r[0] - 1)
			epi += math.Abs(c.res.EPI()/r[1] - 1)
			n++
		}
	}
	return cpi / float64(n) * 100, epi / float64(n) * 100, nil
}

// fabricLayers reports dispatch per traced grid: the coordinator's own
// share of a dispatched cell's execute time (what the winning worker's
// handler did not spend), and how the attempts went. A cell whose key
// the coordinator's store already held is neither dispatched nor run
// locally.
func fabricLayers(out *outcome, cells []dispatched, attempts []attempt, n, steals float64) {
	byKey := map[string][]attempt{}
	for _, a := range attempts {
		byKey[a.key] = append(byKey[a.key], a)
	}
	var dispatches, hedges, requeues, ok, local, execS, overS float64
	for _, c := range cells {
		exec := c.end.Sub(c.start).Seconds()
		as := byKey[c.key]
		if c.hit {
			continue
		}
		if len(as) == 0 {
			local++
			continue
		}
		sort.Slice(as, func(i, j int) bool { return as[i].start.Before(as[j].start) })
		var won *attempt
		for i := range as {
			a := &as[i]
			switch {
			case i == 0:
				dispatches++
			case startedWhileRunning(as[:i], a.start):
				hedges++
			default:
				dispatches++
				requeues++
			}
			if a.status == http.StatusOK && !a.cancelled {
				ok++
				if won == nil || a.end.Before(won.end) {
					won = a
				}
			}
		}
		if won != nil {
			execS += exec
			overS += exec - won.end.Sub(won.start).Seconds()
		}
	}
	out.metrics.set("fabric.overhead_share", overS/math.Max(execS, 1e-12))
	out.metrics.set("fabric.dispatches", dispatches/n)
	out.metrics.set("fabric.hedges", hedges/n)
	out.metrics.set("fabric.requeues", requeues/n)
	out.metrics.set("fabric.local_runs", local/n)
	out.metrics.set("fabric.steals", steals)
	useful := 0.0
	if dispatches+hedges > 0 {
		useful = ok / (dispatches + hedges)
	}
	out.metrics.set("fabric.useful_ratio", useful)
}

// startedWhileRunning reports whether an attempt starting at t
// overlapped an earlier one: a hedge rather than a retry.
func startedWhileRunning(earlier []attempt, t time.Time) bool {
	for _, a := range earlier {
		if a.end.After(t) {
			return true
		}
	}
	return false
}

// fabricLayersAbsent reports the dispatch layers as zero on workloads
// that do not use the fabric.
func fabricLayersAbsent(out *outcome) {
	out.metrics.zero("fabric.overhead_share", "fabric.dispatches", "fabric.hedges", "fabric.steals",
		"fabric.requeues", "fabric.local_runs", "fabric.useful_ratio")
}
