package main

import (
	"runtime"
	"slices"
	"time"

	"mce/internal/bitset"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/filter"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// mirror re-drives Algorithm 1 exactly as core.FindMaxCliques does at width
// 1 (CUT → BLOCKS → per-block feature extraction, decision-tree pick and
// BLOCK-ANALYSIS → recursion on the hub-induced subgraph → Lemma-1 filter,
// or a direct enumeration of a terminal core), calling only the layers'
// public functions so each call can sit inside a span. Its clique family
// must equal the engine's; a run whose mirror disagrees is not counted.
type mirror struct {
	tr   *tracer // nil: untraced
	tree *dtree.Tree

	levels                  int
	blocks                  int
	kernel, border, visited int
	blocksAlloc             uint64
	combos                  map[mcealg.Combo]int
	recursionNodes          int64
	emitted                 int
	blockMax                time.Duration
	heaviest                *decomp.Block
	heaviestCombo           mcealg.Combo
	hubTested, hubKept      int
	core                    *graph.Graph // terminal core, if the recursion stalled
	coreCombo               mcealg.Combo
}

func newMirror(tr *tracer) *mirror {
	return &mirror{tr: tr, tree: dtree.Published(), combos: map[mcealg.Combo]int{}}
}

// run enumerates g with block size m.
func (mr *mirror) run(g *graph.Graph, m int) [][]int32 {
	root := mr.tr.begin("core.run", -1, 0)
	out := mr.level(g, m, 0, root)
	mr.tr.end(root)
	return out
}

func (mr *mirror) level(g *graph.Graph, m, level int, parent int) [][]int32 {
	sp := mr.tr.begin("core.level", parent, int64(level))
	defer mr.tr.end(sp)
	lv := int64(level)
	mr.levels++
	var feasible, hubs []int32
	mr.tr.do("decomp.cut", sp, lv, func() { feasible, hubs = decomp.Cut(g, m) })
	if len(feasible) == 0 {
		return mr.terminal(g, sp, lv)
	}

	var blocks []decomp.Block
	var m0, m1 runtime.MemStats
	if mr.tr != nil {
		runtime.ReadMemStats(&m0)
	}
	mr.tr.do("decomp.blocks", sp, lv, func() { blocks = decomp.Blocks(g, feasible, m, decomp.Options{}) })
	if mr.tr != nil {
		runtime.ReadMemStats(&m1)
		mr.blocksAlloc += m1.TotalAlloc - m0.TotalAlloc
	}

	var out [][]int32
	emit := func(c []int32) { out = append(out, slices.Clone(c)) }
	ins := &telemetry.BlockInstr{}
	for i := range blocks {
		b := &blocks[i]
		var f kcore.Features
		mr.tr.do("kcore.measure", sp, lv, func() { f = kcore.Measure(b.Graph) })
		var c mcealg.Combo
		mr.tr.do("dtree.predict", sp, lv, func() { c = dtree.SafePredict(mr.tree, f) })
		t0 := time.Now()
		id := mr.tr.begin("mcealg.analyze", sp, lv)
		err := decomp.AnalyzeBlockInstr(b, c, emit, ins)
		mr.tr.end(id)
		if err != nil {
			panic(err) // the decision tree only picks combos mcealg implements
		}
		if d := time.Since(t0); d > mr.blockMax {
			mr.blockMax, mr.heaviest, mr.heaviestCombo = d, b, c
		}
		mr.blocks++
		mr.kernel += len(b.Kernel)
		mr.border += len(b.Border)
		mr.visited += len(b.Visited)
		mr.combos[c]++
	}
	mr.recursionNodes += ins.RecursionNodes
	mr.emitted += len(out)
	if len(hubs) == 0 {
		return out
	}

	var sub *graph.Graph
	var orig []int32
	mr.tr.do("graph.induced", sp, lv, func() { sub, orig = graph.Induced(g, hubs) })
	subCliques := mr.level(sub, m, level+1, sp)
	fid := mr.tr.begin("filter", sp, lv)
	ix := filter.NewIndex(out)
	n := len(out)
	for _, c := range subCliques {
		t := make([]int32, len(c))
		for j, v := range c {
			t[j] = orig[v]
		}
		if !ix.ContainedIn(t) {
			out = append(out, t)
		}
	}
	mr.tr.end(fid)
	mr.hubTested += len(subCliques)
	mr.hubKept += len(out) - n
	return out
}

// terminal enumerates a core in which every node is a hub, as the engine's
// direct-core fallback does.
func (mr *mirror) terminal(g *graph.Graph, sp int, lv int64) [][]int32 {
	var f kcore.Features
	mr.tr.do("kcore.measure", sp, lv, func() { f = kcore.Measure(g) })
	var c mcealg.Combo
	mr.tr.do("dtree.predict", sp, lv, func() { c = dtree.SafePredict(mr.tree, f) })
	mr.combos[c]++
	mr.core, mr.coreCombo = g, c
	var out [][]int32
	id := mr.tr.begin("mcealg.core", sp, lv)
	r, err := mcealg.NewRunnerPar(g, c, mcealg.Par{Workers: 1})
	if err != nil {
		panic(err) // as above
	}
	P := bitset.New(g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		P.Add(v)
	}
	r.Subproblem(nil, P, bitset.New(g.N()), func(c []int32) { out = append(out, slices.Clone(c)) })
	mr.tr.end(id)
	nodes, _ := r.Counts()
	mr.recursionNodes += nodes
	mr.emitted += len(out)
	return out
}

// parSpeedup times the work the intra-block pool parallelises — the
// terminal core, or else the slowest block — at width 1 over width n,
// median of reps each.
func (mr *mirror) parSpeedup(n, reps int) float64 {
	run := func(w int) func() error {
		par := mcealg.Par{Workers: w}
		if mr.core != nil {
			return func() error { return mcealg.EnumeratePar(mr.core, mr.coreCombo, par, func([]int32) {}) }
		}
		return func() error {
			return decomp.AnalyzeBlockPar(mr.heaviest, mr.heaviestCombo, func([]int32) {}, nil, par)
		}
	}
	if mr.core == nil && mr.heaviest == nil {
		return 0
	}
	var seq, wide []time.Duration
	for i := 0; i < reps; i++ {
		d, _ := timeIt(run(1))
		seq = append(seq, d)
		d, _ = timeIt(run(n))
		wide = append(wide, d)
	}
	return median(seconds(seq)) / median(seconds(wide))
}

// topComboShare is the share of analysed blocks (or the core) that got the
// most common combo.
func (mr *mirror) topComboShare() float64 {
	top, total := 0, 0
	for _, n := range mr.combos {
		top = max(top, n)
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
