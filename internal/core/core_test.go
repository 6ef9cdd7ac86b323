package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// assertComplete checks that res contains exactly the maximal cliques of g,
// each exactly once.
func assertComplete(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	want := mcealg.ReferenceCollect(g)
	got := map[string]int{}
	for _, c := range res.Cliques {
		got[key(c)]++
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("clique {%s} appears %d times", k, n)
		}
	}
	if len(res.Cliques) != len(want) {
		t.Fatalf("got %d cliques, want %d", len(res.Cliques), len(want))
	}
	for _, c := range want {
		if got[key(c)] != 1 {
			t.Fatalf("clique {%s} missing", key(c))
		}
	}
	if len(res.Level) != len(res.Cliques) {
		t.Fatalf("Level has %d entries for %d cliques", len(res.Level), len(res.Cliques))
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := FindMaxCliques(graph.Empty(0), Options{}); err != ErrNoNodes {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestSingleNode(t *testing.T) {
	res, err := FindMaxCliques(graph.Empty(1), Options{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cliques) != 1 || key(res.Cliques[0]) != "0" {
		t.Fatalf("Cliques = %v", res.Cliques)
	}
}

func TestCompleteGraphSmallM(t *testing.T) {
	// K8 with m=3: every node has degree 7 ≥ m, so the recursion stalls
	// immediately and the core fallback must kick in.
	g := graph.Complete(8)
	res, err := FindMaxCliques(g, Options{BlockSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if !res.Stats.CoreFallback {
		t.Fatalf("expected CoreFallback on the stalled recursion")
	}
}

func TestHubsProduceSecondLevel(t *testing.T) {
	// Star K1,10 with m=4: the centre is a hub, leaves are feasible.
	b := graph.NewBuilder(11)
	for v := int32(1); v < 11; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	res, err := FindMaxCliques(g, Options{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if len(res.Stats.Levels) < 2 {
		t.Fatalf("expected ≥ 2 levels, got %+v", res.Stats.Levels)
	}
	if res.Stats.Levels[0].Hubs != 1 {
		t.Fatalf("level 0 hubs = %d, want 1", res.Stats.Levels[0].Hubs)
	}
	// Every clique {0,v} contains a feasible leaf → all level 0.
	if res.Stats.HubCliques != 0 {
		t.Fatalf("HubCliques = %d, want 0", res.Stats.HubCliques)
	}
}

func TestHubOnlyCliqueDetected(t *testing.T) {
	// The paper's motivating scenario: a clique entirely among hubs.
	// Build a K5 "hub core" and attach many leaves to each core node so
	// their degrees blow past m, then pick m small.
	b := graph.NewBuilder(5 + 5*20)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	next := int32(5)
	for u := int32(0); u < 5; u++ {
		for i := 0; i < 20; i++ {
			b.AddEdge(u, next)
			next++
		}
	}
	g := b.Build()
	res, err := FindMaxCliques(g, Options{BlockSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	// {0,1,2,3,4} must be reported and must be attributed to a hub level.
	found := false
	for i, c := range res.Cliques {
		if key(c) == "0,1,2,3,4" {
			found = true
			if res.Level[i] < 1 {
				t.Fatalf("hub-only clique attributed to level %d", res.Level[i])
			}
		}
	}
	if !found {
		t.Fatalf("hub-only clique missing")
	}
	if res.Stats.HubCliques < 1 {
		t.Fatalf("HubCliques = %d, want ≥ 1", res.Stats.HubCliques)
	}
}

func TestFilterDropsNonMaximalHubCliques(t *testing.T) {
	// Hub pair {0,1} adjacent, plus feasible node 2 adjacent to both:
	// {0,1} is maximal in the hub graph but contained in {0,1,2}.
	b := graph.NewBuilder(3 + 8 + 8)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	next := int32(3)
	for u := int32(0); u < 2; u++ {
		for i := 0; i < 8; i++ {
			b.AddEdge(u, next)
			next++
		}
	}
	g := b.Build()
	// m=5: deg(0)=deg(1)=10 ≥ 5 → hubs; node 2 degree 2 → feasible.
	res, err := FindMaxCliques(g, Options{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	for _, c := range res.Cliques {
		if key(c) == "0,1" {
			t.Fatalf("non-maximal hub clique {0,1} survived the filter")
		}
	}
}

func TestBlockRatioDerivesM(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	res, err := FindMaxCliques(g, Options{BlockRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	wantM := int(0.3*float64(g.MaxDegree()) + 0.999)
	if res.Stats.BlockSize != wantM {
		t.Fatalf("BlockSize = %d, want %d", res.Stats.BlockSize, wantM)
	}
	assertComplete(t, g, res)
}

func TestDefaultRatioIsHalf(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 8)
	res, err := FindMaxCliques(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantM := int(0.5*float64(g.MaxDegree()) + 0.999)
	if res.Stats.BlockSize != wantM {
		t.Fatalf("BlockSize = %d, want %d", res.Stats.BlockSize, wantM)
	}
}

func TestFixedComboPath(t *testing.T) {
	g := gen.HolmeKim(200, 4, 0.6, 15)
	for _, combo := range []mcealg.Combo{
		{Alg: mcealg.Eppstein, Struct: mcealg.Lists},
		{Alg: mcealg.XPivot, Struct: mcealg.Matrix},
	} {
		combo := combo
		res, err := FindMaxCliques(g, Options{BlockRatio: 0.4, FixedCombo: &combo})
		if err != nil {
			t.Fatal(err)
		}
		assertComplete(t, g, res)
	}
}

func TestTrainedTreePath(t *testing.T) {
	g := gen.HolmeKim(200, 4, 0.6, 16)
	tree := dtree.Train([]dtree.Sample{
		{F: kcore.Features{Nodes: 10, Edges: 20, Density: 0.2, Degeneracy: 2, DStar: 3},
			Best: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}},
		{F: kcore.Features{Nodes: 100, Edges: 900, Density: 0.5, Degeneracy: 20, DStar: 25},
			Best: mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists}},
	}, dtree.Options{MinLeaf: 1})
	res, err := FindMaxCliques(g, Options{BlockRatio: 0.5, Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
}

func TestMaxLevelsForcesFallback(t *testing.T) {
	// HardChain needs many levels; capping at 2 must fall back and stay
	// complete.
	g := gen.HardChain(40, 4, 0)
	res, err := FindMaxCliques(g, Options{BlockSize: 5, MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if !res.Stats.CoreFallback {
		t.Fatalf("expected CoreFallback with MaxLevels=2")
	}
	if len(res.Stats.Levels) > 3 {
		t.Fatalf("levels = %d despite cap", len(res.Stats.Levels))
	}
}

func TestHardChainManyLevels(t *testing.T) {
	// Without a cap, the Theorem 1 construction needs Ω(n) levels.
	n := 30
	g := gen.HardChain(n, 4, 0)
	res, err := FindMaxCliques(g, Options{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if len(res.Stats.Levels) < n/2 {
		t.Fatalf("levels = %d, expected Ω(n) ≈ %d", len(res.Stats.Levels), n)
	}
}

func TestDeterministicOutput(t *testing.T) {
	g := gen.HolmeKim(300, 5, 0.7, 19)
	a, err := FindMaxCliques(g, Options{BlockRatio: 0.4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindMaxCliques(g, Options{BlockRatio: 0.4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cliques) != len(b.Cliques) {
		t.Fatalf("parallelism changed clique count: %d vs %d", len(a.Cliques), len(b.Cliques))
	}
	for i := range a.Cliques {
		if key(a.Cliques[i]) != key(b.Cliques[i]) || a.Level[i] != b.Level[i] {
			t.Fatalf("output order differs at %d", i)
		}
	}
}

func TestStatsLevelIterationCounts(t *testing.T) {
	// The paper reports 2 first-level iterations for m/d ∈ {0.5, 0.9} and
	// 3 for {0.1, 0.3} on its datasets. Our surrogates should stay in the
	// same few-iterations regime (Theorem 1's pathology excepted).
	g := gen.HolmeKim(2000, 6, 0.7, 23)
	for _, ratio := range []float64{0.9, 0.5, 0.1} {
		res, err := FindMaxCliques(g, Options{BlockRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Stats.Levels); n < 1 || n > 8 {
			t.Fatalf("ratio %.1f: %d levels, expected a small number", ratio, n)
		}
	}
}

func TestLocalExecutorErrorPropagates(t *testing.T) {
	// Force an error by requesting Matrix on an oversized block via a
	// malicious selector bypassing SafePredict.
	g := gen.ErdosRenyi(50, 0.2, 3)
	blocks := []decomp.Block{*wholeGraphBlockForTest(graph.Empty(mcealg.MatrixMaxNodes + 1))}
	combos := []mcealg.Combo{{Alg: mcealg.Tomita, Struct: mcealg.Matrix}}
	_, err := (&LocalExecutor{}).AnalyzeBlocks(blocks, combos)
	if err == nil {
		t.Fatalf("oversized matrix block did not error")
	}
	_ = g
}

func wholeGraphBlockForTest(g *graph.Graph) *decomp.Block { return wholeGraphBlock(g) }

func TestLocalExecutorComboMismatch(t *testing.T) {
	_, err := (&LocalExecutor{}).AnalyzeBlocks(make([]decomp.Block, 2), make([]mcealg.Combo, 1))
	if err == nil {
		t.Fatalf("mismatched lengths accepted")
	}
}

func TestLocalExecutorEmpty(t *testing.T) {
	out, err := (&LocalExecutor{}).AnalyzeBlocks(nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// Property: FindMaxCliques equals the reference enumeration for random
// graphs across the paper's m/d ratios.
func TestQuickCompleteness(t *testing.T) {
	ratios := []float64{0.9, 0.5, 0.1}
	f := func(seed int64, modelPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 10
		var g *graph.Graph
		switch modelPick % 3 {
		case 0:
			g = gen.ErdosRenyi(n, 0.2, seed)
		case 1:
			g = gen.BarabasiAlbert(n, 3, seed)
		default:
			g = gen.HolmeKim(n, 4, 0.6, seed)
		}
		want := map[string]bool{}
		for _, c := range mcealg.ReferenceCollect(g) {
			want[key(c)] = true
		}
		for _, r := range ratios {
			res, err := FindMaxCliques(g, Options{BlockRatio: r})
			if err != nil {
				return false
			}
			if len(res.Cliques) != len(want) {
				return false
			}
			for _, c := range res.Cliques {
				if !want[key(c)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Level labelling is consistent — a clique is labelled level
// ≥ 1 exactly when all its nodes are hubs of the original graph.
func TestQuickLevelLabelling(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.BarabasiAlbert(int(seed%60)+20, 4, seed)
		m := g.MaxDegree()/2 + 1
		res, err := FindMaxCliques(g, Options{BlockSize: m})
		if err != nil {
			return false
		}
		if res.Stats.Levels[0].Feasible == 0 {
			// Degenerate case: every node is a hub, the level-0 core
			// fallback enumerated the whole graph and labels are all 0.
			return res.Stats.CoreFallback
		}
		for i, c := range res.Cliques {
			allHubs := true
			for _, v := range c {
				if g.Degree(v) < m {
					allHubs = false
					break
				}
			}
			if (res.Level[i] >= 1) != allHubs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindMaxCliques(b *testing.B) {
	g := gen.HolmeKim(3000, 6, 0.7, 41)
	for _, ratio := range []float64{0.9, 0.5, 0.1} {
		b.Run(fmt.Sprintf("ratio-%.1f", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FindMaxCliques(g, Options{BlockRatio: ratio}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestLPTScheduleSameOutput(t *testing.T) {
	g := gen.HolmeKim(600, 5, 0.7, 29)
	fifo, err := FindMaxCliques(g, Options{BlockRatio: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := FindMaxCliques(g, Options{BlockRatio: 0.4, Schedule: ScheduleLPT, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fifo.Cliques) != len(lpt.Cliques) {
		t.Fatalf("LPT changed clique count: %d vs %d", len(lpt.Cliques), len(fifo.Cliques))
	}
	for i := range fifo.Cliques {
		if key(fifo.Cliques[i]) != key(lpt.Cliques[i]) || fifo.Level[i] != lpt.Level[i] {
			t.Fatalf("LPT permuted the output at %d", i)
		}
	}
	assertComplete(t, g, lpt)
}

// trackingExecutor records the order blocks arrive in.
type trackingExecutor struct {
	inner LocalExecutor
	sizes []int64
}

func (e *trackingExecutor) AnalyzeBlocks(blocks []decomp.Block, combos []mcealg.Combo) ([][][]int32, error) {
	for i := range blocks {
		e.sizes = append(e.sizes, int64(blocks[i].Graph.M()+1)*int64(len(blocks[i].Kernel)+1))
	}
	return e.inner.AnalyzeBlocks(blocks, combos)
}

func TestLPTDispatchesHeaviestFirst(t *testing.T) {
	g := gen.HolmeKim(800, 5, 0.7, 31)
	tr := &trackingExecutor{}
	if _, err := FindMaxCliques(g, Options{BlockRatio: 0.4, Schedule: ScheduleLPT, Executor: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.sizes) < 3 {
		t.Skip("too few blocks to check ordering")
	}
	// Level-0 batch comes first; check its prefix is non-increasing until
	// the next level resets. Simply assert the very first block is the
	// global maximum of the first batch by scanning until a rise, which
	// must only happen at a level boundary (small tail batches).
	first := tr.sizes[0]
	for _, s := range tr.sizes {
		if s > first {
			// A later level may contain bigger blocks only if the hub
			// subgraph is denser than any level-0 block — not possible
			// since level-0 includes all of it as borders? Keep the check
			// conservative: the first dispatched block must be at least
			// the median size.
			break
		}
	}
	max0 := tr.sizes[0]
	above := 0
	for _, s := range tr.sizes {
		if s > max0 {
			above++
		}
	}
	if above > len(tr.sizes)/2 {
		t.Fatalf("first dispatched block is not among the heaviest: %v", tr.sizes[:5])
	}
}

// failingExecutor returns an error on every batch.
type failingExecutor struct{}

func (failingExecutor) AnalyzeBlocks([]decomp.Block, []mcealg.Combo) ([][][]int32, error) {
	return nil, fmt.Errorf("synthetic executor failure")
}

func TestExecutorErrorPropagates(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.2, 6)
	if _, err := FindMaxCliques(g, Options{Executor: failingExecutor{}}); err == nil {
		t.Fatal("batch engine swallowed executor failure")
	}
	if _, err := Stream(g, Options{Executor: failingExecutor{}}, func([]int32, int) {}); err == nil {
		t.Fatal("stream engine swallowed executor failure")
	}
}
