package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one grid cell or
// one request share a group; Parent names the span that caused it.
type span struct {
	ID     int64
	Parent int64
	Group  string
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay no bookkeeping.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

// open is a started span; close records it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	group  string
	start  time.Time
}

// start opens a span now.
func (t *tracer) start(name, group string, parent int64) open {
	return t.startAt(name, group, parent, time.Now())
}

// startAt opens a span that began at start.
func (t *tracer) startAt(name, group string, parent int64, start time.Time) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.next.Add(1), parent: parent, name: name, group: group, start: start}
}

// end records the span as ending now.
func (o open) end() { o.endAt(time.Now()) }

func (o open) endAt(end time.Time) {
	if o.t == nil {
		return
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{o.id, o.parent, o.group, o.name, o.start, end})
	o.t.mu.Unlock()
}

// reserve sets aside n span ids and returns the one before the first.
func (t *tracer) reserve(n int) int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(int64(n)) - int64(n)
}

// record keeps a span timed elsewhere.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the recorded spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds returns each span's duration in seconds.
func seconds(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds()
	}
	return out
}

// selfTime sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func selfTime(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += (s.dur() - covered(s, children[s.ID])).Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeTrace writes the spans as a Chrome trace-event file (open it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// row per group, with each layer's self time under otherData. It
// returns the file's path.
func writeTrace(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	rows := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := rows[s.Group]
		if !ok {
			tid = len(rows) + 1
			rows[s.Group] = tid
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Group, Ph: "X",
			Ts:  float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "group": s.Group},
		})
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"self_time_s": selfTime(spans)},
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
