package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mce/internal/cliqdb"
	"mce/internal/cliqstore"
	"mce/internal/community"
	"mce/internal/core"
	"mce/internal/gio"
	"mce/internal/graph"
	"mce/internal/telemetry"
)

// An end-to-end run is a series of rounds, each a pipeline, a width-1
// enumeration and steadyWindows seconds of steady serving. Every metric is
// then a median over work spread across the whole run, so a burst of
// contention from the host's other tenants moves one round, not the run.
const (
	setupReps     = 3
	roundSeconds  = 4.0 // about one round on hubs
	minRounds     = 3
	steadyWindows = 2
	warmup        = 500 * time.Millisecond
	// The traced run's serving phases: steady windows, churn periods and
	// ladder probes.
	traceSteady = 3 * window
	traceChurn  = 4 * rebuildEvery
	probeLength = 1500 * time.Millisecond
)

// startAll runs set-up reps times, stopping each daemon but the last, and
// returns the median set-up time with the last set-up's inputs.
func (b *bench) startAll(reps int) (time.Duration, *inputs, *daemon, error) {
	var times []time.Duration
	var in *inputs
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			b.op(d.stop())
			os.RemoveAll(filepath.Dir(in.dbPath))
		}
		t, err := timeIt(func() error {
			var err error
			in, d, err = b.setup(filepath.Join(b.work, fmt.Sprintf("setup%d", i)))
			return err
		})
		if err != nil {
			return 0, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, t)
	}
	return time.Duration(median(seconds(times)) * float64(time.Second)), in, d, nil
}

// reference checks the set-up compile against the recorded answer for this
// seed and returns the expectation every later enumeration must meet. On a
// seed nobody recorded, the set-up compile is the reference, and the run
// still checks it for maximality and every other path against it.
func (b *bench) reference(in *inputs) (expectation, error) {
	orig, err := toOriginal(in.cliques, in.labels)
	if err != nil {
		return expectation{}, err
	}
	ref := expectation{Cliques: len(orig), Digest: setDigest(orig)}
	if e, ok := b.expected(); ok {
		b.checkFamily("set-up compile", orig, e)
		ref = e
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: seed %d has no recorded answer; checking the paths against each other\n", b.seed)
	}
	if err := checkMaximal(in.lg, in.cliques, 300); err != nil {
		b.wrong("set-up compile: %v", err)
	}
	return ref, nil
}

// oracleFor opens the served index in-process and checks it holds the
// set-up compile's family.
func (b *bench) oracleFor(in *inputs) (*oracle, error) {
	or, err := newOracle(in.dbPath, b.w.communities)
	if err != nil {
		return nil, err
	}
	if got, want := setDigest(or.db.Cliques()), setDigest(in.cliques); got != want {
		b.wrong("compiled index digest %s, want %s", got, want)
	}
	return or, nil
}

// pipeline is the user path from an edge-list file to a verified,
// queryable index, at full width. It returns the wall time and what it
// enumerated, for checking after the clock stops.
func (b *bench) pipeline(in *inputs, dbPath string) (time.Duration, [][]int32, *gio.LabelMap, error) {
	t0 := time.Now()
	g, labels, err := gio.LoadFile(in.edgePath)
	if err != nil {
		return 0, nil, nil, err
	}
	res, err := core.FindMaxCliques(g, b.wide())
	if err != nil {
		return 0, nil, nil, err
	}
	if _, err := cliqdb.Build(res.Cliques, dbPath); err != nil {
		return 0, nil, nil, err
	}
	db, err := cliqdb.Open(dbPath)
	if err != nil {
		return 0, nil, nil, err
	}
	t := time.Since(t0)
	if db.NumCliques() != len(res.Cliques) {
		b.wrong("pipeline index holds %d cliques, enumerated %d", db.NumCliques(), len(res.Cliques))
	}
	return t, res.Cliques, labels, nil
}

// coreNarrow enumerates g with the width-1 engine.
func (b *bench) coreNarrow(g *graph.Graph) ([][]int32, error) {
	res, err := core.FindMaxCliques(g, b.narrow())
	if err != nil {
		return nil, err
	}
	return res.Cliques, nil
}

// endToEnd measures the metrics a user sees, untraced.
func (b *bench) endToEnd() error {
	setup, in, d, err := b.startAll(setupReps)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	ref, err := b.reference(in)
	if err != nil {
		return err
	}
	or, err := b.oracleFor(in)
	if err != nil {
		return err
	}

	var pipe, enum []time.Duration
	var allocs, steadyP99 []float64
	var steady []sample
	pipeDB := filepath.Join(b.work, "pipeline.cliqdb")
	sv := newServed(b, d, in, or, runtime.NumCPU(), nil)
	sv.phase("warmup", nominalQPS, warmup, 0)
	rounds := max(minRounds, int(b.seconds/roundSeconds+0.5))
	for r := 0; r < rounds; r++ {
		runtime.GC()
		t, cliques, labels, err := b.pipeline(in, pipeDB)
		if b.op(err) {
			pipe = append(pipe, t)
			orig, err := toOriginal(cliques, labels)
			if err != nil {
				return err
			}
			b.checkFamily("pipeline", orig, ref)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := core.FindMaxCliques(in.g, b.narrow())
		t = time.Since(t0)
		runtime.ReadMemStats(&m1)
		if b.op(err) {
			enum = append(enum, t)
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			b.checkFamily("width-1 engine", res.Cliques, ref)
			if ref.Stream != "" && r == 0 {
				if s := streamDigest(res.Cliques); s != ref.Stream {
					b.wrong("width-1 engine stream digest %s, want %s", s, ref.Stream)
				}
			}
		}
		ss := sv.phase("steady", nominalQPS, steadyWindows*window, 0)
		steady = append(steady, ss...)
		steadyP99 = append(steadyP99, summarize(ss, perWindow(nominalQPS, window)).p99s...)
	}
	stopped = true
	b.op(d.stop())
	sum := summarize(steady, len(steady))
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds; pipeline %.3f s; enum %.3f s\n", rounds, seconds(pipe), seconds(enum))
	fmt.Fprintf(os.Stderr, "perfbench: steady %d requests: p50 %.3f ms; 1 s window p99s %.2f ms (>= %d samples beyond each); late p99 %.3f ms\n",
		sum.n, sum.p50, steadyP99, summarize(steady, perWindow(nominalQPS, window)).beyond, sum.lateP99)

	b.set("setup_s", "s", setup.Seconds())
	b.set("pipeline_s", "s", median(seconds(pipe)))
	b.set("enum_s", "s", median(seconds(enum)))
	b.set("alloc_mb", "MB", median(allocs))
	b.set("query_p50_ms", "ms", sum.p50)
	return nil
}

// perLayer times each layer from outside, through its public functions.
func (b *bench) perLayer() error {
	in, d, err := b.setup(filepath.Join(b.work, "setup"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	ref, err := b.reference(in)
	if err != nil {
		return err
	}
	or, err := b.oracleFor(in)
	if err != nil {
		return err
	}
	const reps = 3
	repeat := func(n int, f func() error) []time.Duration {
		var ds []time.Duration
		for i := 0; i < n; i++ {
			t, err := timeIt(f)
			if b.op(err) {
				ds = append(ds, t)
			}
		}
		return ds
	}
	medS := func(ds []time.Duration) float64 { return median(seconds(ds)) }

	b.set("host.calib_ms", "ms", median(millis(repeat(5, func() error { calibrate(); return nil }))))

	load := medS(repeat(reps, func() error { _, _, err := gio.LoadFile(in.edgePath); return err }))
	fi, err := os.Stat(in.edgePath)
	if err != nil {
		return err
	}
	b.set("gio.load_s", "s", load)
	b.set("gio.mb_per_s", "MB/s", float64(fi.Size())/1e6/load)

	segDir := filepath.Join(b.work, "segments")
	b.set("cliqstore.write_s", "s", medS(repeat(reps, func() error { return cliqstore.WriteDir(segDir, in.cliques) })))
	dbPath := filepath.Join(b.work, "layer.cliqdb")
	var size int64
	b.set("cliqdb.build_s", "s", medS(repeat(reps, func() error {
		st, err := cliqdb.Build(in.cliques, dbPath)
		if err == nil {
			size = st.Bytes
		}
		return err
	})))
	b.set("cliqdb.open_s", "s", medS(repeat(reps, func() error { _, err := cliqdb.Open(dbPath); return err })))
	b.set("cliqdb.bytes_per_clique", "B", float64(size)/float64(max(1, len(in.cliques))))

	// The mirror, untraced then traced, for the overhead ratio; the last
	// traced run gives the layer metrics. m is resolved from m/d as the
	// engine resolves it.
	m := max(2, int(b.w.blockRatio*float64(in.g.MaxDegree())+0.999))
	var mr *mirror
	var mtr *tracer
	mirrorRun := func(traced bool) func() error {
		return func() error {
			mtr = nil
			if traced {
				mtr = newTracer()
			}
			mr = newMirror(mtr)
			b.checkFamily("mirror", mr.run(in.g, m), ref)
			return nil
		}
	}
	plain := medS(repeat(2, mirrorRun(false)))
	traced := repeat(2, mirrorRun(true))
	b.set("trace.overhead", "ratio", medS(traced)/plain)
	spans := mtr.spans
	self := selfTimes(spans)
	var coreSelf time.Duration
	for i, s := range spans {
		if s.Name == "core.run" || s.Name == "core.level" {
			coreSelf += self[i]
		}
	}
	b.set("core.self_s", "s", coreSelf.Seconds())
	b.set("core.levels", "count", float64(mr.levels))
	b.set("decomp.cut_s", "s", sumByName(spans, "decomp.cut").Seconds())
	b.set("decomp.blocks_s", "s", sumByName(spans, "decomp.blocks").Seconds())
	b.set("decomp.blocks_alloc_mb", "MB", float64(mr.blocksAlloc)/1e6)
	b.set("decomp.blocks", "count", float64(mr.blocks))
	dup := 0.0
	if mr.kernel > 0 {
		dup = float64(mr.kernel+mr.border+mr.visited) / float64(mr.kernel)
	}
	b.set("decomp.dup_ratio", "ratio", dup)
	b.set("graph.induced_s", "s", sumByName(spans, "graph.induced").Seconds())
	b.set("kcore.measure_s", "s", sumByName(spans, "kcore.measure").Seconds())
	b.set("dtree.predict_s", "s", sumByName(spans, "dtree.predict").Seconds())
	b.set("dtree.top_combo_share", "ratio", mr.topComboShare())
	b.set("mcealg.analyze_s", "s", sumByName(spans, "mcealg.analyze", "mcealg.core").Seconds())
	b.set("mcealg.recursion_nodes", "count", float64(mr.recursionNodes))
	b.set("mcealg.cliques_per_node", "ratio", float64(mr.emitted)/float64(max(1, mr.recursionNodes)))
	b.set("mcealg.block_max_ms", "ms", ms(mr.blockMax))
	b.set("mcealg.par_speedup", "x", mr.parSpeedup(runtime.NumCPU(), reps))
	b.set("filter.s", "s", sumByName(spans, "filter").Seconds())
	b.set("filter.hub_cliques", "count", float64(mr.hubTested))
	keep := 0.0
	if mr.hubTested > 0 {
		keep = float64(mr.hubKept) / float64(mr.hubTested)
	}
	b.set("filter.keep_ratio", "ratio", keep)

	// In-process replay of the serving query sequence against the index,
	// without HTTP, JSON or the cache.
	var replay []query
	for _, q := range in.queries[:min(len(in.queries), 20000)] {
		if q.kind != qCommunities {
			replay = append(replay, q)
		}
	}
	postings := 0
	lookups := repeat(reps, func() error {
		postings = 0
		for _, q := range replay {
			postings += len(or.ids(q))
		}
		return nil
	})
	b.set("cliqdb.lookup_ns", "ns", medS(lookups)*1e9/float64(max(1, len(replay))))
	b.set("cliqdb.postings_per_query", "count", float64(postings)/float64(max(1, len(replay))))
	for _, k := range []int{4, 5} {
		v := 0.0
		if b.w.communities {
			cliques := or.db.Cliques()
			v = median(millis(repeat(reps, func() error { _, err := community.Detect(cliques, k); return err })))
		}
		b.set(fmt.Sprintf("community.detect_k%d_ms", k), "ms", v)
	}

	// Serving, with a span per request and mced's counters read around each
	// phase. The tail and capacity figures live here, unbounded: on a
	// two-CPU host with two connections they swing with whether both
	// connections happen to wait behind a communities recompute.
	str := newTracer()
	sv := newServed(b, d, in, or, runtime.NumCPU(), str)
	sv.phase("warmup", nominalQPS, warmup, 0)
	v0, err := d.vars()
	if err != nil {
		return err
	}
	base := sv.cursor
	steady := summarize(sv.phase("steady", nominalQPS, traceSteady, 0), perWindow(nominalQPS, window))
	v1, err := d.vars()
	if err != nil {
		return err
	}
	for i, q := range in.queries[base:sv.cursor] {
		if q.kind != qCommunities {
			str.do("cliqdb."+kindNames[q.kind], -1, int64(base+i), func() { or.ids(q) })
		}
	}
	ss, rebuilds := sv.churn(traceChurn)
	churn := summarize(ss, perWindow(nominalQPS, rebuildEvery))
	lad := newLadder()
	for lad.probes < ladderProbes {
		lad.step(sv, probeLength)
	}
	v2, err := d.vars()
	if err != nil {
		return err
	}
	stopped = true
	b.op(d.stop())
	b.set("serve.query_p99_ms", "ms", steady.p99)
	b.set("serve.churn_p99_ms", "ms", churn.p99)
	b.set("serve.rebuild_s", "s", median(seconds(rebuilds)))
	b.set("serve.max_qps", "1/s", lad.lo)
	q := histDelta(v1.QueryNs, v0.QueryNs)
	b.set("mced.server_p50_ms", "ms", q.Quantile(0.50)/1e6)
	b.set("mced.server_p99_ms", "ms", q.Quantile(0.99)/1e6)
	hits, misses := v1.CacheHits-v0.CacheHits, v1.CacheMisses-v0.CacheMisses
	b.set("mced.cache_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	b.set("mced.shed", "count", float64(v2.QueriesShed-v0.QueriesShed))
	b.set("mced.timed_out", "count", float64(v2.QueriesTimedOut-v0.QueriesTimedOut))
	b.set("mced.degraded_serves", "count", float64(v2.DegradedServes-v0.DegradedServes))
	b.set("loadgen.late_p99_ms", "ms", steady.lateP99)

	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := map[string]any{"workload": b.w.name, "seed": b.seed, "host": hostRecord(), "metrics": b.metrics}
	all := &tracer{spans: slices.Clone(mtr.spans)}
	for _, s := range str.spans {
		if s.Parent >= 0 {
			s.Parent += len(mtr.spans)
		}
		all.spans = append(all.spans, s)
	}
	return all.write(filepath.Join(dir, fmt.Sprintf("%s-%d.json", b.w.name, b.seed)), meta)
}

// histDelta is the histogram of the observations between two snapshots.
func histDelta(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Bounds: after.Bounds, Buckets: slices.Clone(after.Buckets), Max: after.Max}
	for i := range d.Buckets {
		if i < len(before.Buckets) {
			d.Buckets[i] -= before.Buckets[i]
		}
		d.Count += d.Buckets[i]
	}
	return d
}
