package main

import (
	"slices"
	"testing"
	"time"

	"mce/internal/gen"
)

func TestQuantileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: quantile must not rely on order
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{{0.50, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		v, beyond := quantile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(%v) = %v with %d beyond, want %v with %d", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if xs[0] != 1000 {
		t.Error("quantile sorted its input in place")
	}
	if v, beyond := quantile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("one sample: %v, %d", v, beyond)
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("no samples: %v, %d", v, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
}

func TestSummarizeWindows(t *testing.T) {
	// 2500 samples in windows of 1000: the 500-sample tail joins the
	// second window. One window holds a stall; the median ignores it.
	ss := make([]sample, 2500)
	for i := range ss {
		ss[i] = sample{lat: time.Millisecond, ok: true}
	}
	for i := 0; i < 50; i++ {
		ss[i].lat = 80 * time.Millisecond
	}
	ss[2499].ok = false
	s := summarize(ss, 1000)
	if len(s.p99s) != 2 {
		t.Fatalf("window p99s %v, want two windows", s.p99s)
	}
	if s.p99s[0] != 80 || s.p99s[1] != 1 {
		t.Errorf("window p99s = %v, want [80 1]", s.p99s)
	}
	if s.p99 != 40.5 || s.beyond != 10 || s.failed != 1 || s.n != 2500 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSetDigestIgnoresOrder(t *testing.T) {
	cliques := [][]int32{{0, 1, 2}, {1, 3}, {2, 4, 5, 6}, {7}}
	d := setDigest(cliques)
	rev := slices.Clone(cliques)
	slices.Reverse(rev)
	if got := setDigest(rev); got != d {
		t.Errorf("reordered family digest %s, want %s", got, d)
	}
	for _, changed := range [][][]int32{
		{{0, 1, 2}, {1, 3}, {2, 4, 5, 6}},              // one clique fewer
		{{0, 1, 2}, {1, 3}, {2, 4, 5, 7}, {7}},         // one member changed
		{{0, 1, 2}, {1, 3}, {2, 4, 5, 6}, {7}, {7}},    // a duplicate
		{{0, 1}, {2}, {1, 3}, {2, 4, 5, 6}, {7}},       // a clique split
		{{0, 1, 2}, {1, 3}, {2, 4, 5, 6}, {7}, {8, 9}}, // one clique more
	} {
		if setDigest(changed) == d {
			t.Errorf("digest of %v equals the original's", changed)
		}
	}
	if streamDigest(cliques) == streamDigest(rev) {
		t.Error("streamDigest must depend on emission order")
	}
}

// The dense workload at seed 2016 is mcebench -smoke's dense scenario; its
// recorded FNV-1a stream digest carries over.
func TestStreamDigestMatchesSmokeRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates 488k cliques")
	}
	b := &bench{w: workloads["dense"], seed: 2016}
	cliques, err := b.coreNarrow(b.w.graph(b.seed))
	if err != nil {
		t.Fatal(err)
	}
	if got := streamDigest(cliques); len(cliques) != 487880 || got != "5a7f26360ec3567a" {
		t.Errorf("dense seed 2016: %d cliques, stream %s; want 487880, 5a7f26360ec3567a", len(cliques), got)
	}
}

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	g := gen.HolmeKim(2000, 4, 0.5, 1)
	a := schedule(g, 7, 20000, true)
	if b := schedule(g, 7, 20000, true); !slices.Equal(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if c := schedule(g, 8, 20000, true); slices.Equal(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	var kinds [numKinds]int
	for _, q := range a {
		kinds[q.kind]++
		if q.kind == qCommon && !g.HasEdge(q.a, q.b) {
			t.Fatalf("common-cliques pair %d,%d is not an edge", q.a, q.b)
		}
	}
	for k, want := range []float64{0.80, 0.15, 0.04, 0.01} {
		if got := float64(kinds[k]) / float64(len(a)); got < want*0.8 || got > want*1.2 {
			t.Errorf("%s share %.3f, want about %.2f", kindNames[k], got, want)
		}
	}
	for _, q := range schedule(g, 7, 20000, false) {
		if q.kind == qCommunities {
			t.Fatal("communities drawn for a mix without them")
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// One connection at 1000/s; request 0 takes 20ms, the rest nothing.
	// Requests 1..19 were due while it ran, so they go out late, and their
	// latency counts the wait.
	ss := openLoop(40, 1000, 1, 0, func(i int) bool {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return i != 39
	})
	if len(ss) != 40 {
		t.Fatalf("%d samples, want 40", len(ss))
	}
	for i := 1; i <= 10; i++ {
		if want := time.Duration(20-i)*time.Millisecond - 2*time.Millisecond; ss[i].late < want {
			t.Errorf("request %d sent %v late, want at least %v", i, ss[i].late, want)
		}
		if ss[i].lat < ss[i].late {
			t.Errorf("request %d: latency %v below lateness %v", i, ss[i].lat, ss[i].late)
		}
	}
	if ss[0].lat < 20*time.Millisecond || ss[0].late > 5*time.Millisecond {
		t.Errorf("request 0: latency %v, lateness %v", ss[0].lat, ss[0].late)
	}
	if ss[39].ok || !ss[38].ok {
		t.Error("do's verdicts were not kept")
	}

	// A generator that falls abortLate behind stops sending.
	ss = openLoop(1000, 1000, 1, 30*time.Millisecond, func(i int) bool {
		time.Sleep(5 * time.Millisecond)
		return true
	})
	if len(ss) == 0 || len(ss) > 20 {
		t.Errorf("aborted phase kept %d samples", len(ss))
	}
}

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "a1", Start: 12, End: 15, Parent: 1},
		{Name: "x", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10 - 10, 20 - 3, 30, 10, 3, 30}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if d := sumByName(spans, "a", "c"); d != 30 {
		t.Errorf("sumByName = %v, want 30", d)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	ran := false
	tr.do("y", id, 0, func() { ran = true })
	if id != -1 || !ran {
		t.Errorf("nil tracer: id %d, ran %v", id, ran)
	}
	tr = newTracer()
	root := tr.begin("root", -1, 3)
	tr.do("child", root, 3, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans %+v", tr.spans)
	}
}
