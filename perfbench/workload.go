package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"mce/internal/cliqdb"
	"mce/internal/cliqstore"
	"mce/internal/core"
	"mce/internal/gen"
	"mce/internal/gio"
	"mce/internal/graph"
)

// workload is one benchmark input. Every workload runs the whole user path
// (edge-list file → cliques → compiled index → mced queries); they differ
// in where that path spends its time. BENCHMARK.json records why each was
// chosen.
type workload struct {
	name string
	// blockRatio is the paper's m/d.
	blockRatio float64
	graph      func(seed int64) *graph.Graph
	// communities puts /v1/communities in the query mix. The dense index
	// leaves it out: k-clique percolation over its 488k heavily
	// overlapping cliques runs for minutes, far past any deadline.
	communities bool
}

var workloads = map[string]workload{
	// The twitter3 surrogate of gen.Datasets with the spec seed replaced:
	// deep hub recursion, decomposition-bound.
	"hubs": {name: "hubs", blockRatio: 0.1, communities: true, graph: func(seed int64) *graph.Graph {
		spec, err := gen.Dataset("twitter3")
		if err != nil {
			panic(err) // the dataset table is compiled in
		}
		spec.Seed = seed
		return spec.Build()
	}},
	// Erdős–Rényi G(200, 0.5): every node is a hub, so the run is one
	// terminal-core Bron–Kerbosch enumeration with ~488k large cliques.
	"dense": {name: "dense", blockRatio: 0.1, graph: func(seed int64) *graph.Graph {
		return gen.ErdosRenyi(200, 0.5, seed)
	}},
}

// Query kinds of the serving mix.
const (
	qCliquesOf = iota
	qCommon
	qTopK
	qCommunities
	numKinds
)

var kindNames = [numKinds]string{"cliques-of", "common-cliques", "top-k", "communities"}

type query struct {
	kind uint8
	a, b int32
}

func (q query) path() string {
	switch q.kind {
	case qCliquesOf:
		return "/v1/cliques-of?v=" + strconv.Itoa(int(q.a))
	case qCommon:
		return "/v1/common-cliques?u=" + strconv.Itoa(int(q.a)) + "&v=" + strconv.Itoa(int(q.b))
	case qTopK:
		return "/v1/top-k?k=" + strconv.Itoa(int(q.a))
	default:
		return "/v1/communities?k=" + strconv.Itoa(int(q.a))
	}
}

// schedule draws n queries from the serving mix, deterministically from
// seed: 80% cliques-of v with v Zipf(1.1) over vertices ranked by degree,
// 15% common-cliques of a Zipf-drawn u and a random neighbour, 4% top-k
// (k=10), 1% communities (k=4 or 5; top-k where the mix leaves it out).
func schedule(g *graph.Graph, seed int64, n int, communities bool) []query {
	rank := make([]int32, g.N())
	for i := range rank {
		rank[i] = int32(i)
	}
	slices.SortStableFunc(rank, func(a, b int32) int { return g.Degree(b) - g.Degree(a) })
	r := rand.New(rand.NewSource(seed*7919 + 17))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(g.N()-1))
	qs := make([]query, n)
	for i := range qs {
		p := r.Float64()
		switch {
		case p < 0.80:
			qs[i] = query{kind: qCliquesOf, a: rank[zipf.Uint64()]}
		case p < 0.95:
			u := rank[zipf.Uint64()]
			nb := g.Neighbors(u)
			qs[i] = query{kind: qCommon, a: u, b: nb[r.Intn(len(nb))]}
		case p < 0.99 || !communities:
			qs[i] = query{kind: qTopK, a: 10}
		default:
			qs[i] = query{kind: qCommunities, a: int32(4 + r.Intn(2))}
		}
	}
	return qs
}

// inputs is what set-up leaves behind for the measured phases.
type inputs struct {
	g        *graph.Graph // as generated (the engine's in-memory input)
	edgePath string       // g as an edge-list file
	lg       *graph.Graph // the edge list as the program loads it
	labels   *gio.LabelMap
	cliques  [][]int32 // lg's maximal cliques
	dbPath   string
	segDir   string
	queries  []query
}

// setup generates the workload's inputs, writes them, compiles the index
// and its serving segments, and starts mced. The returned daemon is ready.
func (b *bench) setup(dir string) (*inputs, *daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	in := &inputs{
		edgePath: filepath.Join(dir, "graph.txt"),
		dbPath:   filepath.Join(dir, "index.cliqdb"),
		segDir:   filepath.Join(dir, "index.segments"),
	}
	in.g = b.w.graph(b.seed)
	if err := gio.SaveFile(in.edgePath, in.g); err != nil {
		return nil, nil, err
	}
	var err error
	if in.lg, in.labels, err = gio.LoadFile(in.edgePath); err != nil {
		return nil, nil, err
	}
	in.queries = schedule(in.lg, b.seed, b.queryBudget(), b.w.communities)
	res, err := core.FindMaxCliques(in.lg, b.wide())
	if err != nil {
		return nil, nil, err
	}
	in.cliques = res.Cliques
	if err := cliqstore.WriteDir(in.segDir, in.cliques); err != nil {
		return nil, nil, err
	}
	if _, err := cliqdb.Build(in.cliques, in.dbPath); err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(b.mcedBin, in.dbPath, in.segDir)
	if err != nil {
		return nil, nil, err
	}
	return in, d, nil
}

// wide is the pipeline's engine configuration: every CPU, both across and
// within blocks. narrow is the single-thread baseline.
func (b *bench) wide() core.Options {
	n := runtime.GOMAXPROCS(0)
	return core.Options{BlockRatio: b.w.blockRatio, Parallelism: n, IntraBlockParallelism: n}
}

func (b *bench) narrow() core.Options {
	return core.Options{BlockRatio: b.w.blockRatio, Parallelism: 1}
}

// queryBudget is enough queries for every serving phase, the ladder probes
// at their highest rate; phases take consecutive slices, wrapping if they
// run out.
func (b *bench) queryBudget() int {
	return int(ladderMax*probeLength.Seconds()*2*ladderProbes) + int(nominalQPS*(b.seconds+traceChurn.Seconds()))
}

// toOriginal maps cliques over the loaded graph's IDs back to the generated
// graph's IDs (the edge-list labels), members ascending.
func toOriginal(cliques [][]int32, labels *gio.LabelMap) ([][]int32, error) {
	out := make([][]int32, len(cliques))
	for i, c := range cliques {
		t := make([]int32, len(c))
		for j, v := range c {
			id, err := strconv.Atoi(labels.Label(v))
			if err != nil {
				return nil, fmt.Errorf("edge-list label %q is not a vertex ID", labels.Label(v))
			}
			t[j] = int32(id)
		}
		slices.Sort(t)
		out[i] = t
	}
	return out, nil
}

// checkMaximal verifies up to limit cliques spread over the family against
// the graph: each is a clique and no vertex extends it. It needs no
// recorded answer, so it holds the engine to account on any seed.
func checkMaximal(g *graph.Graph, cliques [][]int32, limit int) error {
	if len(cliques) == 0 {
		return fmt.Errorf("no cliques")
	}
	step := max(1, len(cliques)/limit)
	for i := 0; i < len(cliques); i += step {
		c := cliques[i]
		for x := range c {
			for y := x + 1; y < len(c); y++ {
				if !g.HasEdge(c[x], c[y]) {
					return fmt.Errorf("clique %v: %d and %d are not adjacent", c, c[x], c[y])
				}
			}
		}
		for _, w := range g.Neighbors(c[0]) {
			if slices.Contains(c, w) {
				continue
			}
			ext := true
			for _, v := range c[1:] {
				if !g.HasEdge(v, w) {
					ext = false
					break
				}
			}
			if ext {
				return fmt.Errorf("clique %v is not maximal: %d extends it", c, w)
			}
		}
	}
	return nil
}

// timeIt runs f and returns its wall time.
func timeIt(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}
