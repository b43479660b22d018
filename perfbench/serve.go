package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mcd/internal/journal"
	"mcd/internal/resultcache"
	"mcd/internal/service"
	"mcd/internal/stats"
	"mcd/internal/wire"
	"mcd/internal/workload"
)

// memCap bounds the service's memory tier below the stored set (about
// 20 of the ~420-byte result bodies against 48 stored), so hits on the
// disk-resident set are served from disk.
const memCap = 8 << 10

// serveSampleChecks is how many cold and how many hit bodies are
// recomputed in-process and compared byte for byte.
const serveSampleChecks = 4

// serveRig is a single-process service with a disk result store and a
// journal, behind a loopback HTTP server.
type serveRig struct {
	cache *resultcache.Cache
	jnl   *journal.Journal
	jpath string
	mgr   *service.Manager
	srv   *http.Server
	base  string
}

// startServe builds a service over a fresh store and journal in dir. A
// non-nil probe traces the handler and runs cold requests through the
// benchmark's own Dispatch hook.
func startServe(dir string, probe *serveProbe) (*serveRig, error) {
	r := &serveRig{jpath: filepath.Join(dir, "jobs.ndjson")}
	var err error
	if r.cache, err = resultcache.New(resultcache.Options{Dir: filepath.Join(dir, "store"), MaxMemBytes: memCap}); err != nil {
		return nil, err
	}
	if r.jnl, err = journal.Open(r.jpath); err != nil {
		return nil, err
	}
	opts := service.Options{Runners: 2, QueueDepth: 64, Workers: runtime.NumCPU(), Cache: r.cache, Journal: r.jnl}
	var h http.Handler
	if probe != nil {
		opts.Dispatch = probe.dispatch(r.cache)
	}
	r.mgr = service.New(opts)
	h = service.NewHandler(r.mgr)
	if probe != nil {
		h = probe.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: h}
	go r.srv.Serve(ln)
	return r, nil
}

func (r *serveRig) close() {
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r.srv.Shutdown(ctx)
		cancel()
	}
	if r.mgr != nil {
		r.mgr.Close()
	}
	r.jnl.Close()
}

// post sends one run request and reads the whole response.
func post(c *http.Client, base string, body []byte, hdr map[string]string) (status int, xcache string, out []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

// prestore computes and stores the stored set through the service, the
// disk-resident set first so the hot set is what the memory tier keeps.
// It returns each stored spec's body as it came back cold.
func (r *serveRig) prestore(s schedule, bodies [][]byte) ([][]byte, error) {
	c := &http.Client{}
	defer c.CloseIdleConnections()
	out := make([][]byte, len(s.stored))
	order := make([]int, 0, len(s.stored))
	for i := hotN; i < len(s.stored); i++ {
		order = append(order, i)
	}
	for i := 0; i < hotN; i++ {
		order = append(order, i)
	}
	for _, i := range order {
		status, xc, body, err := post(c, r.base, bodies[i], nil)
		if err != nil || status != http.StatusOK || xc != "miss" {
			return nil, fmt.Errorf("prestore %d: status %d cache %q: %v", i, status, xc, err)
		}
		out[i] = body
	}
	return out, nil
}

// served pairs a scheduled request with the generator's record of it.
type served struct {
	req request
	generated
}

func (s served) latency() time.Duration { return s.Done.Sub(s.Due) }

// serveRun is one set-up service driven through one schedule.
type serveRun struct {
	sched  schedule
	stored [][]byte // stored specs' cold bodies
	served []served
	stats  resultcache.Stats // store counters over the driven schedule
	jBytes int64             // journal growth over the driven schedule
	jLines int64
}

// serveOnce sets a service up in dir and pre-stores the stored set,
// and, if play is set, has a generator process play the seed's
// schedule over seconds against it. It returns the set-up time.
func serveOnce(dir string, seed uint64, seconds float64, probe *serveProbe, play bool) (serveRun, float64, error) {
	s, err := newSchedule(seed, secondsDur(seconds))
	if err != nil {
		return serveRun{}, 0, err
	}
	run := serveRun{sched: s}
	storedBodies, _, err := requestBodies(s)
	if err != nil {
		return run, 0, err
	}
	if probe != nil {
		probe.clientBase = probe.tr.reserve(len(s.reqs))
	}
	t := time.Now()
	rig, err := startServe(dir, probe)
	if err != nil {
		return run, 0, err
	}
	defer rig.close()
	if run.stored, err = rig.prestore(s, storedBodies); err != nil {
		return run, 0, err
	}
	setup := since(t)
	if !play {
		return run, setup, nil
	}
	before := rig.cache.Stats()
	growth := watchGrowth(rig.jpath)
	recs, err := runGenerator(rig.base, seed, seconds)
	run.jBytes, run.jLines = growth()
	if err != nil {
		return run, 0, err
	}
	if len(recs) != len(s.reqs) {
		return run, 0, fmt.Errorf("load generator played %d requests, the schedule has %d", len(recs), len(s.reqs))
	}
	after := rig.cache.Stats()
	for i, g := range recs {
		run.served = append(run.served, served{s.reqs[i], g})
		if probe != nil {
			probe.tr.record(span{ID: probe.clientBase + int64(i) + 1, Group: reqGroup(i), Name: "http.client", Start: g.Sent, End: g.Done})
		}
	}
	run.stats = resultcache.Stats{
		MemHits:     after.MemHits - before.MemHits,
		DiskHits:    after.DiskHits - before.DiskHits,
		Misses:      after.Misses - before.Misses,
		Evictions:   after.Evictions - before.Evictions,
		WriteErrors: after.WriteErrors - before.WriteErrors,
	}
	return run, setup, nil
}

// reqGroup names the spans of the i-th scheduled request.
func reqGroup(i int) string { return "req-" + strconv.Itoa(i) }

func requestBodies(s schedule) (stored, cold [][]byte, err error) {
	enc := func(reqs []wire.RunRequest) ([][]byte, error) {
		out := make([][]byte, len(reqs))
		for i, r := range reqs {
			if out[i], err = json.Marshal(r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if stored, err = enc(s.stored); err != nil {
		return nil, nil, err
	}
	cold, err = enc(s.cold)
	return stored, cold, err
}

// fileSize returns a file's size and line count (zeros if unreadable).
func fileSize(path string) (size, lines int64) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	return int64(len(b)), int64(bytes.Count(b, []byte{'\n'}))
}

// watchGrowth samples the journal every 100 ms until the returned stop
// function is called, and returns the bytes and lines appended in
// between. Compaction shrinks the file; growth restarts from the
// compacted size.
func watchGrowth(path string) (stop func() (size, lines int64)) {
	var size, lines int64
	lastSize, lastLines := fileSize(path)
	sample := func() {
		s, l := fileSize(path)
		if s >= lastSize {
			size, lines = size+s-lastSize, lines+l-lastLines
		}
		lastSize, lastLines = s, l
	}
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-done:
				sample()
				return
			}
		}
	}()
	return func() (int64, int64) {
		close(done)
		<-finished
		return size, lines
	}
}

func runServeMix(cfg config, out *outcome) error {
	if !cfg.trace {
		setups := make([]float64, setupReps)
		var run serveRun
		for i := range setups {
			r, setup, err := serveOnce(filepath.Join(cfg.workDir, fmt.Sprint("setup", i)), cfg.seed, cfg.seconds, nil, i == setupReps-1)
			if err != nil {
				return err
			}
			setups[i], run = setup, r
		}
		rss := peakRSSMB()
		hits, _ := checkServed(cfg.seed, out, run)
		out.metrics.set("setup_s", median(setups))
		out.metrics.set("peak_rss_mb", rss)
		// A median that lands on a failed request reads as the run's
		// length, the longest latency the run could have observed.
		out.metrics.set("op_p50_ms", math.Min(quantile(hits, 0.5), cfg.seconds*1e3))
		return nil
	}

	// Traced: the same schedule over half the time each, first against
	// an untraced service, then against a traced one.
	plain, _, err := serveOnce(filepath.Join(cfg.workDir, "plain"), cfg.seed, cfg.seconds/2, nil, true)
	if err != nil {
		return err
	}
	// The tails are reported from the untraced half: on a shared host
	// they follow hypervisor steal too closely to be gated end to end.
	hits, colds := checkServed(cfg.seed, out, plain)
	limit := cfg.seconds / 2 * 1e3
	for i := range colds {
		colds[i] = math.Min(colds[i], limit)
	}
	coldLatencies(out, colds)
	if !enoughFor(len(hits), 0.99) {
		fmt.Fprintf(os.Stderr, "perfbench: %d hits leave fewer than %d samples beyond p99\n", len(hits), tailSamples)
	}
	out.metrics.set("hit_p99_over_p50", math.Min(quantile(hits, 0.99), limit)/quantile(hits, 0.5))
	tr := newTracer(true)
	probe := &serveProbe{tr: tr, log: &cellLog{}, byKey: map[string]probeRef{}}
	traced, _, err := serveOnce(filepath.Join(cfg.workDir, "traced"), cfg.seed, cfg.seconds/2, probe, true)
	if err != nil {
		return err
	}
	checkServed(cfg.seed, out, traced)
	spans := tr.snapshot()
	serveLayers(out, traced, spans, probe)
	out.metrics.set("trace.overhead_pct", (meanLatency(traced)/meanLatency(plain)-1)*100)
	return saveTrace(cfg, spans)
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// meanLatency is the mean latency from due time of a run's answered
// requests, in seconds.
func meanLatency(r serveRun) float64 {
	var xs []float64
	for _, s := range r.served {
		if s.Err == "" && s.Status == http.StatusOK {
			xs = append(xs, s.latency().Seconds())
		}
	}
	return mean(xs)
}

// checkServed counts and checks every response, and returns the hit and
// cold latencies in ms. A refused, failed or wrong response counts as
// failed and as missing every latency limit (it takes +Inf latency); a
// wrong one also makes the run incorrect.
func checkServed(seed uint64, out *outcome, r serveRun) (hits, colds []float64) {
	storedDigest := make([]string, len(r.stored))
	for i, b := range r.stored {
		storedDigest[i] = digest(b)
		if bad := plausible(b, r.sched.stored[i]); bad != "" {
			storedDigest[i] = bad // no hit can match it
			out.fail("stored spec %d: %s", i, bad)
		}
	}
	bad := make([]string, len(r.served))
	var coldIdx, hitIdx []int
	for i, sv := range r.served {
		spec := r.sched.spec(sv.req)
		switch {
		case sv.Err != "":
			bad[i] = sv.Err
		case sv.Status != http.StatusOK:
			bad[i] = fmt.Sprintf("status %d", sv.Status)
		case !sv.req.cold && sv.Digest != storedDigest[sv.req.spec]:
			bad[i] = "hit body differs from the body its key returned cold"
		case !sv.req.cold && sv.XCache != "hit":
			bad[i] = "stored spec was not a hit"
		case sv.req.cold && sv.XCache != "miss":
			bad[i] = "new spec was not a miss"
		case sv.req.cold:
			bad[i] = plausible(sv.Body, spec)
		}
		if bad[i] == "" && seed == defaultSeed {
			bad[i] = checkServeRef(spec, sv)
		}
		if sv.req.cold {
			coldIdx = append(coldIdx, i)
		} else {
			hitIdx = append(hitIdx, i)
		}
	}
	for _, set := range [][]int{coldIdx, hitIdx} {
		for _, j := range sampleIndexes(seed, uint64(len(set)), len(set), serveSampleChecks) {
			i := set[j]
			if bad[i] != "" {
				continue
			}
			want, _, err := r.sched.spec(r.served[i].req).RunCachedBytes(nil)
			if err != nil || digest(want) != r.served[i].Digest {
				bad[i] = fmt.Sprintf("served body differs from an in-process recompute (%v)", err)
			}
		}
	}
	for i, sv := range r.served {
		out.attempted++
		lat := sv.latency().Seconds() * 1e3
		if bad[i] != "" {
			out.failed++
			lat = math.Inf(1)
			if sv.Status != http.StatusTooManyRequests && sv.Err == "" {
				out.fail("request %d (%s): %s", i, map[bool]string{true: "cold", false: "hit"}[sv.req.cold], bad[i])
			}
		}
		if sv.req.cold {
			colds = append(colds, lat)
		} else {
			hits = append(hits, lat)
		}
	}
	if grew := backlogGrowth(r.served); grew > 2 {
		out.fail("open loop fell behind: cold backlog grew by %.1f requests over the run", grew)
	}
	return hits, colds
}

// checkServeRef compares a default-seed response with the committed
// digest of its spec. The reference pins every stored spec and the
// first refColdSpecs cold ones.
func checkServeRef(spec wire.RunRequest, sv served) string {
	key, err := spec.Key()
	if err != nil {
		return err.Error()
	}
	want, ok := reference.Serve[key]
	switch {
	case !ok && (!sv.req.cold || sv.req.spec < refColdSpecs):
		return "no reference digest for the spec"
	case ok && want != sv.Digest:
		return "digest differs from the reference"
	}
	return ""
}

// plausible checks a body decodes to a result of the requested
// benchmark over at least the requested window.
func plausible(body []byte, spec wire.RunRequest) string {
	var r stats.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return "body is not a result: " + err.Error()
	}
	if b, _ := workload.Lookup(spec.Benchmark); r.Benchmark != b.Profile.Name || r.Instructions < spec.Window || r.TimePS <= 0 {
		return "implausible result"
	}
	return ""
}

// backlogGrowth compares how many cold requests were outstanding at
// their due times in the last quarter of the run with the first
// quarter; a service that keeps up shows no growth. Quarters of fewer
// than ten cold requests are too short to judge, and report none.
func backlogGrowth(ss []served) float64 {
	var b []float64
	for _, s := range ss {
		if s.req.cold {
			b = append(b, float64(s.Backlog))
		}
	}
	q := len(b) / 4
	if q < 10 {
		return 0
	}
	return mean(b[len(b)-q:]) - mean(b[:q])
}

// probeRef links a cold request's key to its request and handler span.
type probeRef struct {
	group  string
	parent int64
}

// serveProbe traces the service: a timing middleware around its
// handler, and a Dispatch hook that runs cold requests through the
// spec and session API.
type serveProbe struct {
	tr *tracer
	// clientBase+i+1 is the id of request i's client span, recorded
	// from the generator's timestamps once it has finished.
	clientBase int64
	log        *cellLog
	mu         sync.Mutex
	byKey      map[string]probeRef
}

// handler times the service's handler per request, and on the way in
// times the wire layer's decode and key derivation on a copy of the
// body (the service repeats that work itself).
func (p *serveProbe) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		i, _ := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		group := reqGroup(i)
		hs := p.tr.startAt("service.handler", group, p.clientBase+int64(i)+1, start)
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
			return
		}
		ds := p.tr.start("wire.decode_key", group, hs.id)
		var req wire.RunRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decErr := dec.Decode(&req)
		if decErr == nil {
			ks := p.tr.start("resultcache.key", group, ds.id)
			key, kerr := req.Key()
			ks.end()
			if kerr == nil {
				p.mu.Lock()
				p.byKey[key] = probeRef{group: group, parent: hs.id}
				p.mu.Unlock()
			}
		}
		ds.end()
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
		hs.end()
	})
}

// dispatch runs a cold request in-process through the result store and
// the spec and session API — what the service does locally — with a
// span per call.
func (p *serveProbe) dispatch(cache *resultcache.Cache) service.DispatchFunc {
	return func(ctx context.Context, key string, req wire.RunRequest) ([]byte, bool, error) {
		p.mu.Lock()
		ref := p.byKey[key]
		p.mu.Unlock()
		s := p.tr.start("service.run", ref.group, ref.parent)
		defer s.end()
		return cache.DoBytes(key, func() ([]byte, error) {
			return runCell(p.tr, p.log, ref.group, s.id, req)
		})
	}
}

// serveLayers derives the serving per-layer metrics from the traced
// half of the run: where a hit's and a cold request's time goes, what
// the store and journal did, and how the generator kept to schedule.
func serveLayers(out *outcome, r serveRun, spans []span, p *serveProbe) {
	byGroup := map[string]map[string]span{}
	for _, s := range spans {
		if byGroup[s.Group] == nil {
			byGroup[s.Group] = map[string]span{}
		}
		byGroup[s.Group][s.Name] = s
	}
	var hitRound, hitHandler, hitDecode, coldHandler, queue, run float64
	var hitN, coldN, rejected, late float64
	for i, sv := range r.served {
		if sv.Sent.Sub(sv.Due) > lateAfter {
			late++
		}
		if sv.req.cold {
			coldN++
		} else {
			hitN++
		}
		if sv.Status == http.StatusTooManyRequests {
			rejected++
		}
		g := byGroup[reqGroup(i)]
		h, ok := g["service.handler"]
		if !ok {
			continue
		}
		if !sv.req.cold {
			hitRound += sv.Done.Sub(sv.Sent).Seconds()
			hitHandler += h.dur().Seconds()
			hitDecode += g["wire.decode_key"].dur().Seconds()
			continue
		}
		coldHandler += h.dur().Seconds()
		if rs, ok := g["service.run"]; ok {
			queue += rs.Start.Sub(h.Start).Seconds()
			run += rs.dur().Seconds()
		}
	}
	ratio := func(a, b float64) float64 { return a / math.Max(b, 1e-12) }
	out.metrics.set("service.hit_handler_share", ratio(hitHandler, hitRound))
	out.metrics.set("wire.decode_key_share", ratio(hitDecode, hitHandler))
	out.metrics.set("service.queue_share", ratio(queue, coldHandler))
	out.metrics.set("service.run_share", ratio(run, coldHandler))
	out.metrics.set("service.rejected", rejected)
	out.metrics.set("resultcache.mem_hits", float64(r.stats.MemHits))
	out.metrics.set("resultcache.disk_hits", float64(r.stats.DiskHits))
	out.metrics.set("resultcache.misses", float64(r.stats.Misses))
	out.metrics.set("resultcache.evictions", float64(r.stats.Evictions))
	out.metrics.set("resultcache.write_errors", float64(r.stats.WriteErrors))
	out.metrics.set("journal.records", float64(r.jLines))
	out.metrics.set("journal.bytes", float64(r.jBytes))
	out.metrics.set("loadgen.late_frac", ratio(late, float64(len(r.served))))
	out.metrics.set("loadgen.hit_n", hitN)
	out.metrics.set("loadgen.cold_n", coldN)

	cellLayers(out, spans, "service.run", p.log)
	var instr, ref float64
	for _, sv := range r.served {
		var res stats.Result
		if sv.req.cold && json.Unmarshal(sv.Body, &res) == nil {
			instr += float64(res.Instructions)
			ref += res.TimePS / 1000
		}
	}
	out.metrics.set("sim_mips", ratio(instr, run)/1e6)
	out.metrics.set("sim.instructions", instr)
	out.metrics.set("sim.ref_cycles", ref)
	out.metrics.zero("sim.detailed_intervals", "sim.ff_intervals", "sim.ff_ratio", "cpi_err_pct", "epi_err_pct",
		"runner.cells", "runner.busy_frac", "runner.wait_share", "runner.tail_share")
	fabricLayersAbsent(out)
}

// lateAfter is how late the generator may send a request before it
// counts in loadgen.late_frac.
const lateAfter = time.Millisecond

// serveLayersAbsent reports the serving layers as zero on the grid
// workloads, which do not serve single runs.
func serveLayersAbsent(out *outcome) {
	out.metrics.zero("hit_p99_over_p50", "wire.decode_key_share",
		"resultcache.mem_hits", "resultcache.disk_hits", "resultcache.misses", "resultcache.evictions", "resultcache.write_errors",
		"service.hit_handler_share", "service.queue_share", "service.run_share", "service.rejected",
		"journal.records", "journal.bytes", "loadgen.late_frac", "loadgen.hit_n", "loadgen.cold_n")
}
