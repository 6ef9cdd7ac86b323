package core

import (
	"context"
	"time"

	"mce/internal/bitset"
	"mce/internal/decomp"
	"mce/internal/filter"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// Stream enumerates every maximal clique of g like FindMaxCliques but hands
// each clique to emit as soon as its block batch completes, instead of
// accumulating the full result. Memory stays bounded by the largest block
// batch plus the (small) hub-side recursion — the regime the paper targets,
// where the clique family can dwarf main memory.
//
// emit receives the clique (ascending node IDs; the slice must not be
// retained) and the recursion level it was found at. Cliques arrive in the
// same deterministic order FindMaxCliques returns.
//
// Streaming uses the Lemma 1 extension filter unconditionally: the
// containment filter would need every feasible-side clique of a level kept
// in memory, which is exactly what streaming avoids. Options.Executor and
// all decomposition options are honoured.
func Stream(g *graph.Graph, opts Options, emit func(clique []int32, level int)) (*Stats, error) {
	return StreamContext(context.Background(), g, opts, emit)
}

// StreamContext is Stream with cancellation, mirroring
// FindMaxCliquesContext: the context is checked between recursion levels
// and handed to ContextExecutor implementations.
func StreamContext(ctx context.Context, g *graph.Graph, opts Options, emit func(clique []int32, level int)) (*Stats, error) {
	if g.N() == 0 {
		return nil, ErrNoNodes
	}
	if opts.Checkpoint != nil {
		// Checkpoint resume replays completed blocks out of their segments;
		// a streaming consumer has already observed (and cannot un-observe)
		// whatever the crashed run emitted, so resumed streaming would
		// duplicate cliques. Refuse rather than betray exactly-once.
		return nil, errCheckpointStream
	}
	maxDeg := g.MaxDegree()
	m := resolveBlockSize(maxDeg, opts)
	sel := selector(opts)
	exec := opts.Executor
	if exec == nil {
		exec = &LocalExecutor{Parallelism: opts.Parallelism, Metrics: opts.Metrics, MemoryBudget: opts.MemoryBudget, IntraBlockParallelism: opts.IntraBlockParallelism}
	}
	stats := &Stats{BlockSize: m, MaxDegree: maxDeg}
	if err := streamRecursive(ctx, g, m, sel, exec, opts, stats, 0, emit); err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		snap := opts.Metrics.Snapshot()
		stats.Telemetry = &snap
	}
	return stats, nil
}

func streamRecursive(ctx context.Context, g *graph.Graph, m int, sel func(*decomp.Block) mcealg.Combo, exec Executor, opts Options, stats *Stats, level int, emit func([]int32, int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	met := opts.Metrics
	start := time.Now()
	feasible, hubs := decomp.Cut(g, m)

	if len(feasible) == 0 || (opts.MaxLevels > 0 && level >= opts.MaxLevels && len(hubs) > 0) {
		combo := sel(wholeGraphBlock(g))
		met.ComboPicked(combo.Index(), combo.Label())
		n := 0
		err := mcealg.EnumeratePar(g, combo, corePar(opts), func(c []int32) {
			emit(c, level)
			n++
		})
		if err != nil {
			return err
		}
		stats.CoreFallback = true
		stats.TotalCliques += n
		stats.Levels = append(stats.Levels, LevelStats{
			Nodes: g.N(), Edges: g.M(), Hubs: g.N(),
			Cliques: n, Analysis: time.Since(start),
		})
		met.Add(telemetry.CliquesFound, int64(n))
		met.Inc(telemetry.LevelsCompleted)
		return nil
	}

	blocks := decomp.Blocks(g, feasible, m, opts.Block)
	combos := make([]mcealg.Combo, len(blocks))
	var kernelSum, borderSum, visitedSum int
	for i := range blocks {
		combos[i] = sel(&blocks[i])
		kernelSum += len(blocks[i].Kernel)
		borderSum += len(blocks[i].Border)
		visitedSum += len(blocks[i].Visited)
		met.ComboPicked(combos[i].Index(), combos[i].Label())
	}
	met.Add(telemetry.BlocksBuilt, int64(len(blocks)))
	met.Add(telemetry.KernelNodes, int64(kernelSum))
	met.Add(telemetry.BorderNodes, int64(borderSum))
	met.Add(telemetry.VisitedNodes, int64(visitedSum))
	decompTime := time.Since(start)

	start = time.Now()
	perBlock, err := analyzeScheduled(ctx, exec, blocks, combos, opts.Schedule, nil, nil)
	if err != nil {
		return err
	}
	levelCliques := 0
	for _, cliques := range perBlock {
		for _, c := range cliques {
			emit(c, level)
			levelCliques++
		}
	}
	analysisTime := time.Since(start)
	stats.TotalCliques += levelCliques
	stats.Levels = append(stats.Levels, LevelStats{
		Nodes: g.N(), Edges: g.M(),
		Feasible: len(feasible), Hubs: len(hubs),
		Blocks: len(blocks),
		Kernel: kernelSum, Border: borderSum, Visited: visitedSum,
		Cliques: levelCliques,
		Decomp:  decompTime, Analysis: analysisTime,
	})
	met.Add(telemetry.CliquesFound, int64(levelCliques))
	met.Inc(telemetry.LevelsCompleted)
	if opts.OnLevel != nil {
		opts.OnLevel(stats.Levels[len(stats.Levels)-1])
	}

	if len(hubs) == 0 {
		return nil
	}

	// Recurse on the hub-induced subgraph, filtering survivors by the
	// extension test before emitting — no Cf retention required.
	sub, orig := graph.Induced(g, hubs)
	feasSet := bitset.FromSlice(g.N(), feasible)
	isFeasible := func(v int32) bool { return feasSet.Has(v) }
	translated := make([]int32, 0, 64)
	inner := func(c []int32, subLevel int) {
		translated = translated[:0]
		for _, v := range c {
			translated = append(translated, orig[v])
		}
		start := time.Now()
		keep := !filter.Extensible(g, translated, isFeasible)
		elapsed := time.Since(start)
		stats.FilterTime += elapsed
		met.Add(telemetry.FilterNs, int64(elapsed))
		if keep {
			emit(translated, level+1+subLevel)
			stats.TotalCliques++
			stats.HubCliques++
		} else {
			met.Inc(telemetry.HubCliquesFiltered)
		}
	}
	subStats := &Stats{}
	if err := streamRecursive(ctx, sub, m, sel, exec, opts, subStats, 0, inner); err != nil {
		return err
	}
	stats.Levels = append(stats.Levels, subStats.Levels...)
	stats.CoreFallback = stats.CoreFallback || subStats.CoreFallback
	stats.FilterTime += subStats.FilterTime
	return nil
}
