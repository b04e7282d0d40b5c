package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one operation share Op; Parent indexes the enclosing span (-1
// for an operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and per-layer counts in memory. A nil *tracer is
// the untraced mode: every method is a no-op, so the same call chain runs
// traced and untraced. One tracer belongs to one goroutine.
type tracer struct {
	t0     time.Time
	op     int64
	spans  []span
	stack  []int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span named "<layer>.<call>" under the innermost open span
// and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// count adds v to a per-layer counter recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	calls int
	selfN int64 // summed durations minus child spans
}

// stats folds the span list into per-name totals. A span's self time is
// its duration minus the durations of its child spans (children never
// overlap: the replay is sequential).
func (t *tracer) stats() map[string]*spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStat{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.calls++
		st.selfN += s.End - s.Start - child[i]
	}
	return out
}

// kindShares returns each operation kind's share of the engine time of
// the recorded operations: the self time of every span outside the api
// and store layers, charged to the kind named by its operation's root
// span "op.<kind>".
func (t *tracer) kindShares() map[string]float64 {
	child := make([]int64, len(t.spans))
	root := make([]int, len(t.spans))
	for i, s := range t.spans {
		root[i] = i
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
			root[i] = root[s.Parent] // a parent precedes its children
		}
	}
	byKind := map[string]float64{}
	total := 0.0
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		kind, isOp := strings.CutPrefix(t.spans[root[i]].Name, "op.")
		if !isOp || layer == "op" || layer == "api" || layer == "store" {
			continue
		}
		self := float64(s.End - s.Start - child[i])
		byKind[kind] += self
		total += self
	}
	for k := range byKind {
		byKind[k] /= total
	}
	return byKind
}

// write stores the spans as JSON lines, one span per line, followed by
// one line with the counters.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	names := make([]string, 0, len(t.counts))
	for k := range t.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	counts := make([][2]any, len(names))
	for i, k := range names {
		counts[i] = [2]any{k, t.counts[k]}
	}
	if err := enc.Encode(map[string]any{"counters": counts}); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
