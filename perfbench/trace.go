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

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no tracing). Spans of one
// request share Req; Parent indexes the causing span, -1 for a root.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It records while on
// is set: untraced runs never set it, and a traced run clears it in
// alternate slices to measure its own overhead.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// begin opens a span and returns its handle, -1 when not recording.
func (t *tracer) begin(req int64, parent int, name string) int {
	if !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: now, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begun with handle i.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration. The
// duration is measured even when the tracer is not recording.
func (t *tracer) do(req int64, parent int, name string, fn func(self int)) time.Duration {
	i := t.begin(req, parent, name)
	start := time.Now()
	fn(i)
	d := time.Since(start)
	t.end(i)
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every closed span with the given
// name, in recording order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums durations(name).
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var ivs [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if cs.End >= 0 && hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered(ivs))
	}
	return self
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, hi int64 = 0, -1 << 62
	for _, iv := range ivs {
		if iv[0] > hi {
			total += iv[1] - iv[0]
			hi = iv[1]
		} else if iv[1] > hi {
			total += iv[1] - hi
			hi = iv[1]
		}
	}
	return total
}

// selfTimeTable renders selfTimes as lines, largest first.
func (t *tracer) selfTimeTable() []string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	lines := []string{fmt.Sprintf("%-32s %8s %14s", "span", "calls", "self")}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%-32s %8d %14s", n, len(t.durations(n)), self[n].Round(time.Microsecond)))
	}
	return lines
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(dir, name string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
