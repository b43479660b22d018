package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// generatorEnv, when set, turns the benchmark's own binary into the
// serve-mix load generator: a separate process, so the generator's
// goroutines and garbage collector do not share the service's Go
// scheduler. Its value is a generatorJob in JSON.
const generatorEnv = "PERFBENCH_GENERATOR"

// generatorJob tells the generator process what to play against which
// service.
type generatorJob struct {
	Base    string  `json:"base"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
}

// generated is the generator's record of one scheduled request, in
// schedule order. It carries every response body's digest, but the
// body itself only for cold requests: hits are checked by digest, and
// leaving their bodies out keeps the benchmark's own memory out of
// peak_rss_mb.
type generated struct {
	Due     time.Time `json:"due"`
	Sent    time.Time `json:"sent"`
	Done    time.Time `json:"done"`
	Status  int       `json:"status"`
	XCache  string    `json:"xcache"`
	Digest  string    `json:"digest"`
	Body    []byte    `json:"body,omitempty"`
	Err     string    `json:"err,omitempty"`
	Backlog int       `json:"backlog"`
}

// generatorMain runs the generator process: it regenerates the
// schedule from the seed, plays it, and writes the records to standard
// output.
func generatorMain(spec string) int {
	var job generatorJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench generator:", err)
		return 2
	}
	s, err := newSchedule(job.Seed, secondsDur(job.Seconds))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench generator:", err)
		return 1
	}
	stored, cold, err := requestBodies(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench generator:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(drive(job.Base, s, stored, cold)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench generator:", err)
		return 1
	}
	return 0
}

// runGenerator plays the seed's schedule against the service at base
// from a generator process, waits for it to exit, and returns its
// records.
func runGenerator(base string, seed uint64, seconds float64) ([]generated, error) {
	job, err := json.Marshal(generatorJob{Base: base, Seed: seed, Seconds: seconds})
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), secondsDur(seconds)+time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), generatorEnv+"="+string(job))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var recs []generated
	if err := json.Unmarshal(out, &recs); err != nil {
		return nil, fmt.Errorf("load generator output: %w", err)
	}
	return recs, nil
}

// drive plays the schedule open-loop: each request is sent at its due
// time whatever the earlier ones are doing, over at most nproc
// connections (half for each stream), and is timed from its due time.
// Each request carries its schedule index in X-Bench-Req, which the
// traced service's middleware uses to group its spans.
func drive(base string, s schedule, stored, cold [][]byte) []generated {
	conns := runtime.NumCPU() / 2
	if conns < 1 {
		conns = 1
	}
	newClient := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	}
	hitClient, coldClient := newClient(), newClient()
	defer hitClient.CloseIdleConnections()
	defer coldClient.CloseIdleConnections()

	out := make([]generated, len(s.reqs))
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, rq := range s.reqs {
		due := start.Add(rq.due)
		time.Sleep(time.Until(due))
		out[i].Due = due
		client, body := hitClient, []byte(nil)
		if rq.cold {
			client, body = coldClient, cold[rq.spec]
			out[i].Backlog = int(outstanding.Add(1)) - 1
		} else {
			body = stored[rq.spec]
		}
		wg.Add(1)
		go func(i int, cold bool, client *http.Client, body []byte) {
			defer wg.Done()
			g := &out[i]
			g.Sent = time.Now()
			status, xcache, resp, err := post(client, base, body, map[string]string{"X-Bench-Req": strconv.Itoa(i)})
			g.Done = time.Now()
			g.Status, g.XCache, g.Digest = status, xcache, digest(resp)
			if err != nil {
				g.Err = err.Error()
			}
			if cold {
				g.Body = resp
				outstanding.Add(-1)
			}
		}(i, rq.cold, client, body)
	}
	wg.Wait()
	return out
}
