package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share its trace ID; Parent names the span that caused it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   int    `json:"trace,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the traced run writes them out at its end.
// Untraced runs still call it for the few phase spans, which cost nothing
// measurable, and never write them.
type tracer struct {
	start time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(t.start))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.start))
	return time.Duration(s.EndNs - s.StartNs)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	err := fn()
	return t.end(id), err
}

// requests adds one span per request of a stream that ran inside the span
// parent, each request its own trace.
func (t *tracer) requests(parent int, s *stream) {
	base := t.spans[parent-1].StartNs
	for i := range s.out {
		o := &s.out[i]
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: i + 1,
			Name: "http." + s.name, StartNs: base + int64(o.sent), EndNs: base + int64(o.done)})
	}
}

// writeSpans writes the span file of a traced run.
func (r *runner) writeSpans() error {
	dir := filepath.Join(r.work, "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-%d.json", r.w.name, r.seed, time.Now().UnixNano()))
	data, err := json.Marshal(r.tr.spans)
	if err == nil {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("perfbench: %d spans written to %s\n", len(r.tr.spans), path)
	return nil
}

// overhead prints the traced run's end-to-end numbers minus those of the
// newest untraced run of the same workload and seed in the results
// directory: the cost of tracing.
func (r *runner) overhead() {
	files, _ := filepath.Glob(filepath.Join(r.resultsDir, fmt.Sprintf("%s-s%d-t0-*.json", r.w.name, r.seed)))
	if len(files) == 0 {
		fmt.Printf("perfbench: tracing overhead: no untraced result for %s seed %d to compare with\n", r.w.name, r.seed)
		return
	}
	sort.Strings(files)
	base, err := readResult(files[len(files)-1])
	if err != nil {
		fmt.Printf("perfbench: tracing overhead: %v\n", err)
		return
	}
	for _, name := range endToEnd {
		t, ok1 := r.res.Metrics[name]
		u, ok2 := base.Metrics[name]
		if !ok1 || !ok2 || u.Value == 0 {
			continue
		}
		fmt.Printf("perfbench: tracing overhead %-20s traced %12.6g untraced %12.6g %s (%+.1f%%)\n",
			name, t.Value, u.Value, t.Unit, 100*(t.Value-u.Value)/u.Value)
	}
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}
