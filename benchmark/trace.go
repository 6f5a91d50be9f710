package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name ("layer.call"), when it
// ran, the span that caused it and the operation it belongs to. Times
// are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; the benchmark issues operations from
// one goroutine, so the open spans form a stack.
type tracer struct {
	t0    time.Time
	op    int // stamped on new spans; 0 is the reference join, pairs count from 1
	spans []span
	open  []int // indexes into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// do times one call as a span.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	err := f()
	t.end()
	return err
}

// covered is the length of the part of [start, end] that the intervals
// cover, counting overlaps once.
func covered(start, end int64, intervals [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range intervals {
		lo, hi := max(iv[0], start), min(iv[1], end)
		if lo < hi {
			clipped = append(clipped, [2]int64{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, reach int64
	reach = start
	for _, iv := range clipped {
		if iv[1] <= reach {
			continue
		}
		total += iv[1] - max(iv[0], reach)
		reach = iv[1]
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) time.Duration {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.Start, c.End}
	}
	return s.dur() - time.Duration(covered(s.Start, s.End, ivs))
}

// totals sums span durations and self times by name and counts spans.
type totals struct {
	dur, self map[string]time.Duration
	count     map[string]int
}

func (t *tracer) totals() totals {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	tt := totals{dur: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	for _, s := range t.spans {
		tt.dur[s.Name] += s.dur()
		tt.self[s.Name] += selfTime(s, children[s.ID])
		tt.count[s.Name]++
	}
	return tt
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
