package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span that
// caused it (-1 for a root); Req ties the spans of one run or request
// together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// write saves the spans as JSON, with meta beside them.
func (t *tracer) write(path string, meta any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children (a
// parallel section) are merged, so covered time is never counted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		var covered, curLo, curHi int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// sumByName totals the durations of the spans whose name is in names.
func sumByName(spans []span, names ...string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if slices.Contains(names, s.Name) {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}
