package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory and are written out when the benchmark ends. A nil
// *tracer records nothing, so the untraced path pays one nil check per
// call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int // next sort id
}

// span is one timed call. All spans of one sort (or kernel pass) share its
// sort id; parent indexes tracer.spans, -1 for the sort's root span.
type span struct {
	name       string
	sort       int
	parent     int
	lane       int // trace_event thread: 0 main, 1.. the sink goroutines
	start, end int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newSort returns a fresh sort id.
func (t *tracer) newSort() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin opens a span and returns its index.
func (t *tracer) begin(sortID int, name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, sort: sortID, parent: parent, lane: lane, start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerTimes is one span name's totals within one sort.
type layerTimes struct {
	dur, self time.Duration
	calls     int
}

// bySort sums every span name's duration and self time per sort. A span's
// self time is its duration minus the part of it its children cover; the
// children of one span may overlap (two sink lanes), so it is the union
// that is subtracted.
func (t *tracer) bySort() map[int]map[string]layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[int]map[string]layerTimes)
	for i, s := range t.spans {
		m := out[s.sort]
		if m == nil {
			m = make(map[string]layerTimes)
			out[s.sort] = m
		}
		lt := m[s.name]
		lt.dur += time.Duration(s.end - s.start)
		lt.self += time.Duration(s.end-s.start) - covered(t.spans, children[i], s.start, s.end)
		lt.calls++
		m[s.name] = lt
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// given spans.
func covered(spans []span, ids []int, lo, hi int64) time.Duration {
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		s, e := max(spans[id].start, lo), min(spans[id].end, hi)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64 = 0, lo
	for _, x := range iv {
		s := max(x[0], reach)
		if x[1] > s {
			total += x[1] - s
			reach = x[1]
		}
	}
	return time.Duration(total)
}

// traceEvent is one Chrome trace_event "complete" event; viewers such as
// chrome://tracing and Perfetto open a file of them. Each sort is its own
// process row, each goroutine lane a thread.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the tracer's epoch
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write saves every span as Chrome trace_event JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: s.sort, Tid: s.lane,
			Args: map[string]int{"span": i, "parent": s.parent, "sort": s.sort}}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
