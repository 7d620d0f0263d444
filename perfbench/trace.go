package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from this package.
// Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNs and EndNs are host nanoseconds since the recorder began.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. It is used from
// the benchmark's goroutine only. A nil Recorder records nothing, so
// untraced runs call the same code.
type Recorder struct {
	origin time.Time
	spans  []Span
	open   []int // stack of open span IDs; the top is the current parent
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Begin opens a span under the innermost open span and returns a
// function that closes it.
func (r *Recorder) Begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(r.origin))})
	r.open = append(r.open, id)
	return func() {
		r.spans[id-1].EndNs = int64(time.Since(r.origin))
		r.open = r.open[:len(r.open)-1]
	}
}

// Len reports the number of spans recorded.
func (r *Recorder) Len() int { return len(r.spans) }

// SelfTimes sums, per span name, the span's duration minus the part of
// it that its child spans cover. Children never overlap each other (all
// spans come from one goroutine), so the covered part is the sum of the
// children's durations.
func SelfTimes(spans []Span) map[string]time.Duration {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - child[s.ID])
	}
	return self
}

// PrintSelfTimes prints the self time of every span name, largest
// first.
func (r *Recorder) PrintSelfTimes(w io.Writer) {
	self := SelfTimes(r.spans)
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "self %-28s %10.3f ms\n", n, float64(self[n])/1e6)
	}
}

// WriteFile writes every span as JSON.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
