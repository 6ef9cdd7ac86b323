// Package decomp implements the paper's two-level network decomposition:
// CUT (Algorithm 2) separates feasible from hub nodes, BLOCKS (Algorithm 3)
// greedily partitions the feasible nodes into dense, bounded-size blocks with
// kernel/border/visited structure, and BLOCK-ANALYSIS (Algorithm 4)
// enumerates the maximal cliques owned by one block.
//
// A node is feasible for block size m when its closed neighbourhood
// {n} ∪ N(n) has at most m nodes — i.e. deg(n) < m — so a block can hold the
// node together with its whole neighbourhood; otherwise it is a hub
// (paper §2). Every feasible node becomes the kernel of exactly one block;
// hub nodes only ever appear as border or visited nodes and are handled by
// the recursion one level up (package core).
package decomp

import (
	"math/rand"
	"slices"
	"sort"

	"mce/internal/bitset"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// Cut performs the first-level decomposition: it splits the nodes of g into
// feasible nodes (degree < m) and hub nodes (degree ≥ m), both ascending.
func Cut(g *graph.Graph, m int) (feasible, hubs []int32) {
	for v := int32(0); v < int32(g.N()); v++ {
		if IsFeasible(g, v, m) {
			feasible = append(feasible, v)
		} else {
			hubs = append(hubs, v)
		}
	}
	return feasible, hubs
}

// IsFeasible reports whether v's closed neighbourhood fits in a block of
// size m (the paper's isfeasible on a single node).
func IsFeasible(g *graph.Graph, v int32, m int) bool {
	return g.Degree(v) < m
}

// Block is one unit of the second-level decomposition. Node identifiers are
// local to the block's induced subgraph; Orig maps them back to g.
type Block struct {
	// Graph is the subgraph induced by Kernel ∪ Border ∪ Visited,
	// with local IDs 0..Graph.N()-1.
	Graph *graph.Graph
	// Orig maps local IDs to the original graph's IDs.
	Orig []int32
	// Kernel lists the local IDs of the block's kernel nodes: feasible
	// nodes owned by this block (each feasible node is kernel in exactly
	// one block).
	Kernel []int32
	// Border lists the local IDs of neighbours of kernels that are not
	// kernels of any earlier block (they may be hubs or later kernels).
	Border []int32
	// Visited lists the local IDs of neighbours that were kernels of an
	// earlier block; cliques containing them are already enumerated there.
	Visited []int32
}

// Order selects how Blocks picks the seed of each new block.
type Order uint8

const (
	// OrderDegreeAsc seeds blocks from the lowest-degree unassigned node,
	// so dense regions coalesce around their periphery (the default; the
	// increasing-degree heuristic of [10], §7).
	OrderDegreeAsc Order = iota
	// OrderID seeds blocks in plain node-ID order.
	OrderID
	// OrderRandom seeds blocks in a seeded pseudo-random order — the
	// hash-partitioning strawman the paper calls "the worst possible
	// partitioning for scale-free networks" (§7, [15]); kept as an
	// ablation baseline.
	OrderRandom
)

// Options tunes the greedy block construction.
type Options struct {
	// MinAdjacency stops block growth when the best remaining border
	// candidate has fewer than this many edges into the current kernels
	// (paper §3.2: candidates below a threshold start a new block so blocks
	// stay internally dense). Values < 1 mean 1.
	MinAdjacency int
	// Order selects the block seeding order; see the Order constants.
	Order Order
	// Seed drives OrderRandom.
	Seed int64
}

// Blocks performs the second-level decomposition (Algorithm 3): it
// partitions the feasible nodes into kernel sets of blocks of at most m
// nodes, growing each block greedily along dense adjacency. The input graph
// is not modified; feasible must contain only nodes with degree < m.
func Blocks(g *graph.Graph, feasible []int32, m int, opts Options) []Block {
	minAdj := opts.MinAdjacency
	if minAdj < 1 {
		minAdj = 1
	}
	n := g.N()

	order := seedOrder(g, feasible, opts)

	isFeasible := bitset.FromSlice(n, feasible)
	assigned := bitset.New(n) // feasible nodes already kernels anywhere
	var blocks []Block

	cover := bitset.New(n)       // K ∪ N(K) of the block under construction
	inKernel := bitset.New(n)    // K of the block under construction
	adjCount := make([]int32, n) // edges from candidate to current kernels

	for _, start := range order {
		if assigned.Has(start) {
			continue
		}
		cover.Clear()
		inKernel.Clear()
		var kernels []int32
		var touched []int32 // nodes whose adjCount must be reset afterwards

		coverSize := 0
		addKernel := func(v int32) {
			inKernel.Add(v)
			assigned.Add(v)
			kernels = append(kernels, v)
			if !cover.Has(v) {
				cover.Add(v)
				coverSize++
			}
			for _, u := range g.Neighbors(v) {
				if !cover.Has(u) {
					cover.Add(u)
					coverSize++
				}
				if adjCount[u] == 0 {
					touched = append(touched, u)
				}
				adjCount[u]++
			}
		}

		// growthOf returns |{v} ∪ N(v) \ cover|, the cover increase of
		// adopting v as a kernel (the incremental isfeasible test).
		growthOf := func(v int32) int {
			grow := 0
			if !cover.Has(v) {
				grow++
			}
			for _, u := range g.Neighbors(v) {
				if !cover.Has(u) {
					grow++
				}
			}
			return grow
		}

		// Seed the block. A feasible start always fits: |{v} ∪ N(v)| ≤ m.
		addKernel(start)

		// Grow greedily: among unassigned feasible border nodes, take the
		// one with the most edges into the kernel set, while the block
		// stays within m nodes and the candidate is dense enough.
		for {
			best, bestAdj := int32(-1), int32(0)
			for _, v := range touched {
				if adjCount[v] >= bestAdj && isFeasible.Has(v) &&
					!assigned.Has(v) && !inKernel.Has(v) {
					if adjCount[v] > bestAdj || (best >= 0 && v < best) || best < 0 {
						best, bestAdj = v, adjCount[v]
					}
				}
			}
			if best < 0 || int(bestAdj) < minAdj {
				break
			}
			if coverSize+growthOf(best) > m {
				break
			}
			addKernel(best)
		}

		blocks = append(blocks, assemble(g, kernels, cover, inKernel, assigned, isFeasible))

		for _, v := range touched {
			adjCount[v] = 0
		}
	}
	return blocks
}

// seedOrder arranges the feasible nodes according to opts.Order.
func seedOrder(g *graph.Graph, feasible []int32, opts Options) []int32 {
	order := make([]int32, len(feasible))
	copy(order, feasible)
	switch opts.Order {
	case OrderID:
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	case OrderRandom:
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	default: // OrderDegreeAsc
		sort.Slice(order, func(i, j int) bool {
			di, dj := g.Degree(order[i]), g.Degree(order[j])
			if di != dj {
				return di < dj
			}
			return order[i] < order[j]
		})
	}
	return order
}

// assemble builds the Block record for the chosen kernels. assigned must
// already include the new kernels; a neighbour is Visited when it was a
// kernel of an earlier block, i.e. assigned but not in the current kernel
// set.
func assemble(g *graph.Graph, kernels []int32, cover, inKernel, assigned, isFeasible *bitset.Set) Block {
	nodes := cover.Slice() // ascending: kernels, borders and visited mixed
	sub, orig := graph.Induced(g, nodes)
	blk := Block{Graph: sub, Orig: orig}
	for local, global := range orig {
		switch {
		case inKernel.Has(global):
			blk.Kernel = append(blk.Kernel, int32(local))
		case assigned.Has(global) && isFeasible.Has(global):
			blk.Visited = append(blk.Visited, int32(local))
		default:
			blk.Border = append(blk.Border, int32(local))
		}
	}
	return blk
}

// ComboSelector picks the MCE combo used for a block, typically the decision
// tree's bestfit (package dtree) or a fixed combo for baselines.
type ComboSelector func(b *Block) mcealg.Combo

// FixedCombo returns a selector that always picks c.
func FixedCombo(c mcealg.Combo) ComboSelector {
	return func(*Block) mcealg.Combo { return c }
}

// AnalyzeBlock implements BLOCK-ANALYSIS (Algorithm 4): it emits every
// maximal clique of g that contains at least one kernel node of b and no
// visited node, with node identifiers translated back to g's IDs. Cliques
// are emitted exactly once per block; across blocks, the visited mechanism
// guarantees global uniqueness. The slice passed to emit is reused.
func AnalyzeBlock(b *Block, combo mcealg.Combo, emit func(clique []int32)) error {
	return AnalyzeBlockInstr(b, combo, emit, nil)
}

// AnalyzeBlockInstr is AnalyzeBlock with optional instrumentation: when ins
// is non-nil, the block's MCE recursion-node and pivot-selection counts are
// added to it after the analysis. A nil ins takes the identical code path
// with zero extra allocations — the instrumented executors pass nil when
// telemetry is disabled, keeping the hot loop paper-faithful.
func AnalyzeBlockInstr(b *Block, combo mcealg.Combo, emit func(clique []int32), ins *telemetry.BlockInstr) error {
	return AnalyzeBlockPar(b, combo, emit, ins, mcealg.Par{})
}

// AnalyzeBlockPar is AnalyzeBlockInstr with explicit intra-block
// parallelism: a BitSetsParallel combo (or par.Workers > 1) runs each
// kernel subproblem on mcealg's work-stealing pool. Emission order, and
// therefore the downstream checkpoint digests and Lemma-1 filter input, is
// identical to the sequential path — the pool merges per-worker cliques
// back into depth-first order before emitting (see mcealg/parallel.go).
//
//mce:hotpath per-block Algorithm 4 kernel loop
func AnalyzeBlockPar(b *Block, combo mcealg.Combo, emit func(clique []int32), ins *telemetry.BlockInstr, par mcealg.Par) error {
	n := b.Graph.N()
	// P starts as K ∪ H; V̄ starts as the visited set (line 2–3).
	P := bitset.New(n)
	for _, v := range b.Kernel {
		P.Add(v)
	}
	for _, v := range b.Border {
		P.Add(v)
	}
	vbar := bitset.New(n)
	for _, v := range b.Visited {
		vbar.Add(v)
	}

	runner, err := mcealg.NewRunnerPar(b.Graph, combo, par)
	if err != nil {
		return err
	}
	Pk := bitset.New(n)
	Xk := bitset.New(n)
	nk := bitset.New(n)
	global := make([]int32, 0, 32)
	translate := func(local []int32) {
		global = global[:0]
		for _, v := range local {
			global = append(global, b.Orig[v])
		}
		slices.Sort(global) // not sort.Slice: that boxes the slice per emitted clique
		emit(global)
	}
	for _, k := range b.Kernel {
		// N_k ← N(k); run MCE(k, P ∩ N_k, V̄ ∩ N_k) (lines 5–6).
		nk.Clear()
		for _, u := range b.Graph.Neighbors(k) {
			nk.Add(u)
		}
		Pk.AndInto(P, nk)
		Xk.AndInto(vbar, nk)
		runner.Subproblem([]int32{k}, Pk, Xk, translate)
		// k is done: all cliques through it are found (lines 7–8).
		P.Remove(k)
		vbar.Add(k)
	}
	ins.Add(runner.Counts())
	return nil
}
