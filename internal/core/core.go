// Package core orchestrates FIND-MAX-CLIQUES (paper Algorithm 1), the
// recursive two-level decomposition that enumerates every maximal clique of
// a network while keeping each unit of work inside a block of at most m
// nodes:
//
//  1. CUT splits the nodes into feasible and hub nodes (first level);
//  2. BLOCKS partitions the feasible nodes into dense blocks (second level);
//  3. BLOCK-ANALYSIS enumerates each block's cliques with the combo chosen
//     by the decision tree, in parallel or on a remote cluster (Executor);
//  4. the whole procedure recurses on the subgraph induced by the hubs;
//  5. hub-side cliques that some feasible node extends are filtered out
//     (Lemma 1's extension test, equivalent to the paper's containment in a
//     feasible-side clique), making the union exactly the maximal cliques of
//     the input.
//
// One emit-driven recursion implements all five steps. Stream hands its
// caller each clique as it is found; FindMaxCliques collects the same
// cliques, in the same order, into a Result.
//
// Theorem 1 guarantees the recursion empties whenever m exceeds the
// network's degeneracy; for smaller m the recursion can stall on the
// (m+1)-core, in which case the engine enumerates that terminal core
// directly (recorded in Stats.CoreFallback) so completeness is never lost.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mce/internal/bitset"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/filter"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
	"mce/internal/resguard"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// Executor runs BLOCK-ANALYSIS for a batch of blocks. combos[i] is the
// data-structure/algorithm combination chosen for blocks[i]; the return
// value holds the cliques of each block (global node IDs), indexed like
// blocks. The engine takes ownership of the returned slices: it may keep
// them in the result or rewrite them in place. Implementations:
// LocalExecutor (in-process pool) and cluster.Client (TCP workers).
type Executor interface {
	AnalyzeBlocks(blocks []decomp.Block, combos []mcealg.Combo) ([][][]int32, error)
}

// ContextExecutor is implemented by executors that support cancelling an
// in-flight block batch. FindMaxCliquesContext uses it when available, so
// a caller's cancellation reaches work already shipped to remote workers
// instead of only taking effect between batches. Both LocalExecutor and
// cluster.Client implement it.
type ContextExecutor interface {
	AnalyzeBlocksContext(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo) ([][][]int32, error)
}

// CheckpointExecutor is implemented by executors that can report per-block
// progress while a batch runs: ids[i] is blocks[i]'s stable identity in the
// run plan, and obs is told the moment each block is dispatched and the
// moment its result is complete. A checkpointing run (Options.Checkpoint)
// prefers this path, so a coordinator killed mid-batch loses at most the
// blocks still in flight; executors without it fall back to journaling at
// batch granularity. Both LocalExecutor and cluster.Client implement it.
type CheckpointExecutor interface {
	AnalyzeBlocksCheckpoint(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo, ids []runlog.BlockID, obs runlog.BatchObserver) ([][][]int32, error)
}

// Options configures FindMaxCliques.
type Options struct {
	// BlockSize is m, the maximum number of nodes per block. If 0, it is
	// derived from BlockRatio.
	BlockSize int
	// BlockRatio sets m = ceil(ratio × max degree) when BlockSize is 0,
	// matching the m/d parameterisation of the paper's experiments
	// (§6.2 uses ratios 0.9 … 0.1). If both are 0, ratio 0.5 is used —
	// the saddle point the paper identifies in Figure 8.
	BlockRatio float64
	// Tree is the algorithm-selection decision tree; nil means the
	// reconstruction of the paper's Figure 3 (dtree.Published).
	Tree *dtree.Tree
	// FixedCombo, when non-nil, bypasses the decision tree and uses one
	// combo everywhere (the paper's fixed-combination baselines, Figure 4).
	FixedCombo *mcealg.Combo
	// Block tunes the greedy second-level decomposition.
	Block decomp.Options
	// Executor runs block batches; nil means a LocalExecutor with
	// Parallelism workers.
	Executor Executor
	// Parallelism is the local worker count when Executor is nil;
	// 0 means GOMAXPROCS.
	Parallelism int
	// IntraBlockParallelism is the work-stealing worker count inside a
	// single block's enumeration (and the terminal core's): when > 1, the
	// combo selector upgrades BitSets picks on large blocks to
	// BitSetsParallel, so one dense block no longer serializes a run. It
	// multiplies with Parallelism (each block worker spawns its own pool),
	// so the useful product is about GOMAXPROCS. Output — cliques and their
	// order — is identical at every setting; 0 or 1 keeps the sequential
	// recursion.
	IntraBlockParallelism int
	// MaxLevels caps the recursion depth as a safety net; 0 means no cap.
	// The cap triggers the same direct-core fallback as a stalled
	// recursion, so results stay complete.
	MaxLevels int
	// Schedule orders the blocks before dispatch; see the Schedule
	// constants. Results are identical either way.
	Schedule Schedule
	// Metrics, when non-nil, receives live telemetry from every phase of
	// the run (blocks, combo picks, per-block timings, filter time, and —
	// through the executor — queue depth and algorithm counters). Nil
	// disables telemetry entirely: every engine method is a no-op on a nil
	// receiver and the block-analysis hot loop allocates nothing extra.
	Metrics *telemetry.Engine
	// Checkpoint, when non-nil, makes the run crash-safe: every level's
	// block plan and every block completion is journaled, block results are
	// persisted in per-block segments, and a run restarted against the same
	// checkpoint directory loads completed blocks from disk instead of
	// re-analysing them. The checkpoint must have been opened with the
	// identity CheckpointIdentity reports for this (graph, options) pair.
	Checkpoint *runlog.Checkpoint
	// MemoryBudget is a heap budget in bytes for the local executor (when
	// Executor is nil): while the process heap is above it, block dispatch
	// pauses instead of buffering more results toward an OOM kill. One
	// block always stays in flight, so the run degrades to serial
	// execution, never deadlocks. 0 disables the guard.
	MemoryBudget int64
}

// Schedule selects the block dispatch order handed to the Executor.
type Schedule uint8

const (
	// ScheduleFIFO dispatches blocks in construction order.
	ScheduleFIFO Schedule = iota
	// ScheduleLPT dispatches the estimated-heaviest blocks first
	// (longest-processing-time), so a skewed block cannot strand a lone
	// worker at the end of the batch — the parallel-skew issue the
	// distributed MCE literature highlights ([38] in the paper).
	ScheduleLPT
)

// LevelStats records one recursion level of the first-level decomposition.
type LevelStats struct {
	// Nodes and Edges describe the graph at this level.
	Nodes, Edges int
	// Feasible and Hubs count the CUT partition at this level.
	Feasible, Hubs int
	// Blocks is the number of second-level blocks.
	Blocks int
	// Kernel, Border and Visited sum the three node classes of Algorithm 3
	// across this level's blocks. Kernel always equals Feasible (every
	// feasible node is kernel in exactly one block); Border and Visited
	// measure the duplication the bounded-size decomposition pays.
	Kernel, Border, Visited int
	// Cliques counts the cliques found from this level's blocks (before
	// higher levels' results are filtered against lower ones).
	Cliques int
	// Decomp and Analysis measure the wall time of the two phases.
	Decomp, Analysis time.Duration
}

// Stats aggregates a FindMaxCliques run.
type Stats struct {
	// BlockSize is the m actually used.
	BlockSize int
	// MaxDegree is the input graph's maximum degree (the d of m/d).
	MaxDegree int
	// Levels holds one entry per recursion level, outermost first. Its
	// length is the paper's "number of iterations of the first-level
	// decomposition".
	Levels []LevelStats
	// FilterTime is the total time spent in the Lemma 1 filter.
	FilterTime time.Duration
	// CoreFallback reports that the recursion stopped making progress (or
	// hit MaxLevels) and the terminal core was enumerated directly.
	CoreFallback bool
	// TotalCliques is the number of maximal cliques returned.
	TotalCliques int
	// HubCliques is the number of returned cliques that were discovered at
	// recursion level ≥ 1, i.e. cliques made of hub nodes only — the
	// cliques a hub-neglecting decomposition would lose (Figures 9–11).
	HubCliques int
	// ResumedBlocks counts blocks whose cliques were loaded from the
	// checkpoint's segments instead of re-analysed — non-zero only when the
	// run resumed prior state (Options.Checkpoint).
	ResumedBlocks int
	// SkippedBlocks counts blocks abandoned as poison tasks under
	// skip-poison mode (cluster.ClientOptions.SkipPoisonTasks). Non-zero
	// means the clique set is explicitly incomplete; callers must surface
	// it, and mcefind exits non-zero.
	SkippedBlocks int
	// CheckpointDegraded reports that a checkpoint write failure (e.g. a
	// full disk) disabled checkpointing mid-run: the results are complete
	// and correct, but the journal records only the prefix written before
	// the failure, so a crash would resume from there.
	CheckpointDegraded bool
	// Telemetry is the final metrics snapshot of the run when it was
	// started with a telemetry engine (Options.Metrics, or the mce
	// package's WithTelemetry/WithProgress options); nil otherwise.
	Telemetry *telemetry.Snapshot
}

// Result is the outcome of FindMaxCliques.
type Result struct {
	// Cliques holds every maximal clique of the input graph, each sorted
	// ascending, in deterministic order.
	Cliques [][]int32
	// Level[i] is the recursion depth at which Cliques[i] was found:
	// 0 for cliques containing a feasible node of the original graph,
	// k ≥ 1 for cliques found k levels into the hub recursion (all their
	// nodes are hubs at levels 0..k-1).
	Level []int
	// Stats describes the run.
	Stats Stats
}

// LocalExecutor runs block analyses on a bounded in-process worker pool.
type LocalExecutor struct {
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// Metrics, when non-nil, receives per-block telemetry: queue depth,
	// per-combo timings and the merged mcealg recursion counters. Nil
	// keeps the worker loop allocation-free.
	Metrics *telemetry.Engine
	// MemoryBudget is a heap budget in bytes: while the process heap is
	// above it, workers pause before starting the next block instead of
	// accumulating more results toward an OOM kill (one worker is always
	// admitted, so progress is guaranteed). 0 disables the guard.
	MemoryBudget int64
	// IntraBlockParallelism is the per-block work-stealing width handed to
	// mcealg for BitSetsParallel combos; see Options.IntraBlockParallelism.
	// The pool's split gate is wired to the executor's memory guard, so
	// stealable-subproblem growth pauses with the same budget that paces
	// block dispatch.
	IntraBlockParallelism int
}

// AnalyzeBlocks implements Executor.
func (e *LocalExecutor) AnalyzeBlocks(blocks []decomp.Block, combos []mcealg.Combo) ([][][]int32, error) {
	return e.AnalyzeBlocksContext(context.Background(), blocks, combos)
}

// AnalyzeBlocksContext implements ContextExecutor: cancellation stops the
// pool from starting new blocks (blocks already being analysed run to
// completion — block analysis has no preemption points) and the call
// returns ctx.Err().
func (e *LocalExecutor) AnalyzeBlocksContext(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo) ([][][]int32, error) {
	return e.analyze(ctx, blocks, combos, nil, nil)
}

// AnalyzeBlocksCheckpoint implements CheckpointExecutor: each block's
// completion is reported to obs as it happens, so a checkpointing run can
// make it durable before the batch finishes.
func (e *LocalExecutor) AnalyzeBlocksCheckpoint(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo, ids []runlog.BlockID, obs runlog.BatchObserver) ([][][]int32, error) {
	if len(ids) != len(blocks) {
		return nil, fmt.Errorf("core: %d blocks but %d block IDs", len(blocks), len(ids))
	}
	return e.analyze(ctx, blocks, combos, ids, obs)
}

// analyze is the pool shared by both executor shapes; ids/obs are nil for
// plain batches.
//
//mce:hotpath block-analysis worker pool
func (e *LocalExecutor) analyze(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo, ids []runlog.BlockID, obs runlog.BatchObserver) ([][][]int32, error) {
	if len(blocks) != len(combos) {
		return nil, arityMismatch(len(blocks), len(combos))
	}
	workers := e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	out := make([][][]int32, len(blocks))
	if len(blocks) == 0 {
		return out, nil
	}
	var (
		wg       sync.WaitGroup //lint:ignore hotbox captured once per spawned worker, not per recursion node
		mu       sync.Mutex     //lint:ignore hotbox captured once per spawned worker, not per recursion node
		firstErr error
	)
	met := e.Metrics
	met.Add(telemetry.QueueDepth, int64(len(blocks)))
	guard := resguard.New(e.MemoryBudget, met)
	// Intra-block pools split subtrees into heap-held tasks; gating the
	// splits on the same guard keeps deque growth inside the budget. The
	// method value is safe on a nil guard (unlimited budget → never over).
	par := mcealg.Par{Workers: e.IntraBlockParallelism, SplitGate: guard.OverBudget}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// ins is per-worker scratch: the recursion counts accumulate
			// without atomics and merge into the engine once per block.
			ins := met.NewBlockInstr()
			for i := range next {
				met.Add(telemetry.QueueDepth, -1)
				if ctx.Err() != nil {
					continue // drain the queue without analysing
				}
				// Memory guard: over budget, workers pause here instead of
				// piling more clique sets into the heap. ctx cancellation
				// releases the wait (the loop then drains without analysing).
				guard.Enter(ctx.Done())
				if ctx.Err() != nil {
					guard.Exit()
					continue
				}
				if obs != nil {
					obs.BlockDispatched(ids[i])
				}
				met.Inc(telemetry.TasksInFlight)
				t0 := time.Now()
				var cliques [][]int32 //lint:ignore hotbox the emit sink must outlive the callback; captured once per block, not per node
				err := decomp.AnalyzeBlockPar(&blocks[i], combos[i], func(c []int32) {
					cp := make([]int32, len(c))
					copy(cp, c)
					cliques = append(cliques, cp)
				}, ins, par)
				met.ComboAnalyzed(combos[i].Index(), combos[i].Label(), time.Since(t0))
				met.MergeBlockInstr(ins)
				met.Add(telemetry.TasksInFlight, -1)
				if err == nil && obs != nil {
					// Durability before acknowledgement: the block only
					// counts once its cliques are journaled.
					err = obs.BlockDone(ids[i], cliques)
				}
				guard.Exit()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				out[i] = cliques
			}
		}()
	}
	for i := range blocks {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// arityMismatch formats the blocks/combos length error of analyze. It is a
// separate function so the fmt machinery stays off the hot path: analyze is
// a hot-path root and the mismatch fires at most once per batch.
//
//mce:coldpath error formatting, at most once per batch
func arityMismatch(blocks, combos int) error {
	return fmt.Errorf("core: %d blocks but %d combos", blocks, combos)
}

// ErrNoNodes is returned for a graph with no nodes at all; the empty graph
// has no maximal cliques, but asking is almost always a caller bug.
var ErrNoNodes = errors.New("core: graph has no nodes")

// errCheckpointStream refuses checkpointed streaming; see StreamContext.
var errCheckpointStream = errors.New("core: checkpointing is not supported with streaming enumeration (a resume would re-emit cliques the consumer already saw); use FindMaxCliques or drop the checkpoint")

// FindMaxCliques enumerates every maximal clique of g — Algorithm 1.
func FindMaxCliques(g *graph.Graph, opts Options) (*Result, error) {
	return FindMaxCliquesContext(context.Background(), g, opts)
}

// FindMaxCliquesContext is FindMaxCliques with cancellation: ctx is
// checked between recursion levels and handed to the executor's
// ContextExecutor path when it has one, so cancelling stops an in-flight
// distributed run rather than waiting for the current batch to finish.
func FindMaxCliquesContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	res := &Result{}
	stats, err := enumerate(ctx, g, opts, func(c []int32, level int) {
		res.Cliques = append(res.Cliques, c)
		res.Level = append(res.Level, level)
	})
	if err != nil {
		return nil, err
	}
	res.Stats = *stats
	return res, nil
}

// resolveBlockSize resolves m from the options exactly as the engine will
// use it, so the checkpoint identity and the run agree.
func resolveBlockSize(maxDeg int, opts Options) int {
	m := opts.BlockSize
	if m <= 0 {
		ratio := opts.BlockRatio
		if ratio <= 0 {
			ratio = 0.5
		}
		m = int(ratio*float64(maxDeg) + 0.999)
	}
	if m < 2 {
		m = 2
	}
	return m
}

// CheckpointIdentity computes the identity a checkpoint directory for this
// (graph, options) pair must carry: the graph digest plus a digest of every
// option that shapes the block plan or the result partitioning — the
// resolved m, the second-level decomposition tuning, and the recursion cap.
// Transport and scheduling options are excluded: they change how blocks
// run, never which blocks exist or what each produces.
func CheckpointIdentity(g *graph.Graph, opts Options) runlog.Identity {
	m := resolveBlockSize(g.MaxDegree(), opts)
	minAdj := opts.Block.MinAdjacency
	if minAdj < 1 {
		minAdj = 1
	}
	fields := []uint64{
		uint64(m),
		uint64(minAdj),
		uint64(opts.Block.Order),
		uint64(opts.Block.Seed),
		uint64(opts.MaxLevels),
	}
	return runlog.Identity{
		Graph:   runlog.GraphDigest(g),
		Options: runlog.OptionsDigest(fields...),
	}
}

// parallelMinBlockNodes is the smallest block worth the intra-block pool:
// below it the pool-spawn and merge overhead beats any fan-out gain, so the
// selector leaves small blocks on the sequential BitSets path.
const parallelMinBlockNodes = 128

// selector builds the per-block combo chooser from the options. With
// IntraBlockParallelism > 1 the chosen combo is upgraded from BitSets to
// BitSetsParallel on blocks large enough to amortise the pool (the decision
// tree already steers dense blocks — where the parallel win lives — to
// BitSets). The upgrade never changes the emitted cliques or their order:
// both structures share the same rows and the same pivot arithmetic, and
// the parallel enumerator merges back into depth-first order.
//
//mce:hotpath per-block combo pick
func selector(opts Options) func(*decomp.Block) mcealg.Combo {
	base := baseSelector(opts)
	if opts.IntraBlockParallelism <= 1 {
		return base
	}
	return func(b *decomp.Block) mcealg.Combo {
		c := base(b)
		if c.Struct == mcealg.BitSets && b.Graph.N() >= parallelMinBlockNodes {
			c.Struct = mcealg.BitSetsParallel
		}
		return c
	}
}

//mce:hotpath per-block combo pick (decision tree)
func baseSelector(opts Options) func(*decomp.Block) mcealg.Combo {
	if opts.FixedCombo != nil {
		c := *opts.FixedCombo
		return func(b *decomp.Block) mcealg.Combo {
			if c.Struct == mcealg.Matrix && b.Graph.N() > mcealg.MatrixMaxNodes {
				return mcealg.Combo{Alg: c.Alg, Struct: mcealg.BitSets}
			}
			return c
		}
	}
	tree := opts.Tree
	if tree == nil {
		tree = dtree.Published()
	}
	return func(b *decomp.Block) mcealg.Combo {
		return dtree.SafePredict(tree, kcore.Measure(b.Graph))
	}
}

// run holds what every level of one Algorithm 1 run shares.
type run struct {
	opts  Options
	m     int
	sel   func(*decomp.Block) mcealg.Combo
	exec  Executor
	stats *Stats
}

// enumerate is the one entry to Algorithm 1 behind both FindMaxCliques and
// Stream: it resolves m, the combo selector and the executor, runs the
// level loop from depth 0 and hands every maximal clique of g to emit, in
// the engine's deterministic order, together with its discovery level. The
// emitted slice belongs to emit.
func enumerate(ctx context.Context, g *graph.Graph, opts Options, emit func(clique []int32, level int)) (*Stats, error) {
	if g.N() == 0 {
		return nil, ErrNoNodes
	}
	maxDeg := g.MaxDegree()
	m := resolveBlockSize(maxDeg, opts)
	exec := opts.Executor
	if exec == nil {
		exec = &LocalExecutor{Parallelism: opts.Parallelism, Metrics: opts.Metrics, MemoryBudget: opts.MemoryBudget, IntraBlockParallelism: opts.IntraBlockParallelism}
	}
	stats := &Stats{BlockSize: m, MaxDegree: maxDeg}
	r := &run{opts: opts, m: m, sel: selector(opts), exec: exec, stats: stats}
	err := r.level(ctx, g, 0, func(c []int32, level int) {
		stats.TotalCliques++
		if level >= 1 {
			stats.HubCliques++
		}
		emit(c, level)
	})
	if err != nil {
		return nil, err
	}
	if cp := opts.Checkpoint; cp != nil {
		if err := cp.FinishRun(); err != nil {
			return nil, err
		}
		stats.ResumedBlocks = int(cp.SkippedBlocks())
		stats.CheckpointDegraded = cp.Degraded()
	}
	if opts.Metrics != nil {
		snap := opts.Metrics.Snapshot()
		stats.Telemetry = &snap
	}
	return stats, nil
}

// level runs the body of Algorithm 1 at recursion depth level: it hands
// every maximal clique of g (in g's IDs) to emit with the depth it was found
// at — first the cliques of this level's blocks, then the hub recursion's
// survivors of the Lemma 1 filter. Every slice passed to emit is owned by
// the receiver, which may keep or rewrite it.
func (r *run) level(ctx context.Context, g *graph.Graph, level int, emit func(clique []int32, level int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	opts, met := r.opts, r.opts.Metrics
	start := time.Now()
	feasible, hubs := decomp.Cut(g, r.m)

	// Stalled recursion (Theorem 1 precondition violated: every remaining
	// node is a hub, so the induced subgraph equals g) or depth cap: the
	// remaining graph is the terminal (m+1)-core. Enumerate it directly —
	// Lemma 1 still applies with C2 = all maximal cliques of this subgraph.
	if len(feasible) == 0 || (opts.MaxLevels > 0 && level >= opts.MaxLevels && len(hubs) > 0) {
		return r.terminalCore(g, level, start, emit)
	}

	blocks := decomp.Blocks(g, feasible, r.m, opts.Block)
	combos := make([]mcealg.Combo, len(blocks))
	var kernelSum, borderSum, visitedSum int
	for i := range blocks {
		combos[i] = r.sel(&blocks[i])
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
	var perBlock [][][]int32
	var err error
	if cp := opts.Checkpoint; cp != nil {
		perBlock, err = analyzeCheckpointed(ctx, cp, r.exec, blocks, combos, opts.Schedule, level)
	} else {
		perBlock, err = analyzeScheduled(ctx, r.exec, blocks, combos, opts.Schedule, nil, nil)
	}
	if err != nil {
		return err
	}
	found := 0
	for _, cliques := range perBlock {
		for _, c := range cliques {
			emit(c, level)
		}
		found += len(cliques)
	}
	r.stats.Levels = append(r.stats.Levels, LevelStats{
		Nodes: g.N(), Edges: g.M(),
		Feasible: len(feasible), Hubs: len(hubs),
		Blocks: len(blocks),
		Kernel: kernelSum, Border: borderSum, Visited: visitedSum,
		Cliques: found,
		Decomp:  decompTime, Analysis: time.Since(start),
	})
	met.Add(telemetry.CliquesFound, int64(found))
	met.Inc(telemetry.LevelsCompleted)

	if len(hubs) == 0 {
		return nil
	}

	// Recurse on the hub-induced subgraph (Algorithm 1, line 6). Each
	// hub-side clique is translated to this level's IDs in place and
	// dropped when a feasible node extends it (line 7; Lemma 1).
	sub, orig := graph.Induced(g, hubs)
	feasSet := bitset.FromSlice(g.N(), feasible)
	isFeasible := func(v int32) bool { return feasSet.Has(v) }
	return r.level(ctx, sub, level+1, func(c []int32, depth int) {
		for j, v := range c {
			c[j] = orig[v] // stays ascending: orig is ascending
		}
		t0 := time.Now()
		drop := filter.Extensible(g, c, isFeasible)
		elapsed := time.Since(t0)
		r.stats.FilterTime += elapsed
		met.Add(telemetry.FilterNs, int64(elapsed))
		if drop {
			met.Inc(telemetry.HubCliquesFiltered)
			return
		}
		emit(c, depth)
	})
}

// analyzeCheckpointed runs one level's batch against the checkpoint: the
// level's block plan is journaled (and validated against a resumed journal),
// blocks the journal records as done are served from their segments, and
// only the remainder is dispatched — with per-block durability when the
// executor supports it. Results come back indexed like blocks, so resumed
// and fresh runs produce identical output.
func analyzeCheckpointed(ctx context.Context, cp *runlog.Checkpoint, exec Executor, blocks []decomp.Block, combos []mcealg.Combo, sched Schedule, level int) ([][][]int32, error) {
	if err := cp.BeginLevel(level, len(blocks)); err != nil {
		return nil, err
	}
	perBlock := make([][][]int32, len(blocks))
	var pendIdx []int
	for i := range blocks {
		if cliques, ok := cp.DoneCliques(runlog.BlockID{Level: level, Plan: i}); ok {
			perBlock[i] = cliques
			continue
		}
		pendIdx = append(pendIdx, i)
	}
	if len(pendIdx) > 0 {
		pend := make([]decomp.Block, len(pendIdx))
		pendCombos := make([]mcealg.Combo, len(pendIdx))
		ids := make([]runlog.BlockID, len(pendIdx))
		for pos, i := range pendIdx {
			pend[pos] = blocks[i]
			pendCombos[pos] = combos[i]
			ids[pos] = runlog.BlockID{Level: level, Plan: i}
		}
		results, err := analyzeScheduled(ctx, exec, pend, pendCombos, sched, ids, cp)
		if err != nil {
			return nil, err
		}
		for pos, i := range pendIdx {
			perBlock[i] = results[pos]
		}
	}
	if err := cp.EndLevel(level); err != nil {
		return nil, err
	}
	return perBlock, nil
}

// analyzeScheduled dispatches the blocks in the configured order and
// returns the results in the original block order, so scheduling never
// changes the output. The context reaches the executor when it implements
// ContextExecutor; otherwise it is checked once before dispatch. When
// obs is non-nil (checkpointing run), ids index like blocks and block
// completions are reported — per block through a CheckpointExecutor, or at
// batch granularity for executors without one.
func analyzeScheduled(ctx context.Context, exec Executor, blocks []decomp.Block, combos []mcealg.Combo, sched Schedule, ids []runlog.BlockID, obs runlog.BatchObserver) ([][][]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plain := func(b []decomp.Block, cb []mcealg.Combo) ([][][]int32, error) {
		if ce, ok := exec.(ContextExecutor); ok {
			return ce.AnalyzeBlocksContext(ctx, b, cb)
		}
		return exec.AnalyzeBlocks(b, cb)
	}
	analyze := func(b []decomp.Block, cb []mcealg.Combo, bids []runlog.BlockID) ([][][]int32, error) {
		if obs == nil {
			return plain(b, cb)
		}
		if ce, ok := exec.(CheckpointExecutor); ok {
			return ce.AnalyzeBlocksCheckpoint(ctx, b, cb, bids, obs)
		}
		// Batch-granularity fallback: the journal still records every
		// completion, just only after the whole batch returns — a crash
		// mid-batch re-runs the batch, which the idempotent segments make
		// safe.
		for _, id := range bids {
			obs.BlockDispatched(id)
		}
		out, err := plain(b, cb)
		if err != nil {
			return nil, err
		}
		for i, id := range bids {
			if err := obs.BlockDone(id, out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if sched != ScheduleLPT || len(blocks) < 2 {
		return analyze(blocks, combos, ids)
	}
	perm := make([]int, len(blocks))
	for i := range perm {
		perm[i] = i
	}
	// Cost estimate: block analysis is roughly linear in the per-kernel
	// neighbourhood work, which edges × kernels tracks well enough for
	// ordering purposes.
	cost := func(b *decomp.Block) int64 {
		return int64(b.Graph.M()+1) * int64(len(b.Kernel)+1)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return cost(&blocks[perm[a]]) > cost(&blocks[perm[b]])
	})
	ordered := make([]decomp.Block, len(blocks))
	orderedCombos := make([]mcealg.Combo, len(blocks))
	var orderedIDs []runlog.BlockID
	if ids != nil {
		orderedIDs = make([]runlog.BlockID, len(blocks))
	}
	for pos, idx := range perm {
		ordered[pos] = blocks[idx]
		orderedCombos[pos] = combos[idx]
		if ids != nil {
			orderedIDs[pos] = ids[idx]
		}
	}
	permuted, err := analyze(ordered, orderedCombos, orderedIDs)
	if err != nil {
		return nil, err
	}
	out := make([][][]int32, len(blocks))
	for pos, idx := range perm {
		out[idx] = permuted[pos]
	}
	return out, nil
}

// terminalCore handles the terminal core directly with a single MCE run.
// Under a checkpoint it is journaled as a one-block level, so a resumed run
// loads the terminal core's cliques from its segment too; without one the
// cliques stream straight to emit. This is exactly where intra-block
// parallelism matters most: the terminal hub core is one dense enumeration
// with no block-level parallelism to hide behind.
func (r *run) terminalCore(g *graph.Graph, level int, start time.Time, emit func([]int32, int)) error {
	cp, met := r.opts.Checkpoint, r.opts.Metrics
	id := runlog.BlockID{Level: level, Plan: 0}
	var cliques [][]int32
	resumed := false
	if cp != nil {
		if err := cp.BeginLevel(level, 1); err != nil {
			return err
		}
		cliques, resumed = cp.DoneCliques(id)
	}
	n := 0
	if !resumed {
		combo := r.sel(wholeGraphBlock(g))
		met.ComboPicked(combo.Index(), combo.Label())
		err := mcealg.EnumeratePar(g, combo, corePar(r.opts), func(c []int32) {
			dup := make([]int32, len(c))
			copy(dup, c)
			if cp != nil {
				cliques = append(cliques, dup)
				return
			}
			emit(dup, level)
			n++
		})
		if err != nil {
			return err
		}
		if cp != nil {
			if err := cp.BlockDone(id, cliques); err != nil {
				return err
			}
		}
	}
	if cp != nil {
		if err := cp.EndLevel(level); err != nil {
			return err
		}
		for _, c := range cliques {
			emit(c, level)
		}
		n = len(cliques)
	}
	r.stats.CoreFallback = true
	r.stats.Levels = append(r.stats.Levels, LevelStats{
		Nodes: g.N(), Edges: g.M(), Hubs: g.N(),
		Cliques: n, Analysis: time.Since(start),
	})
	met.Add(telemetry.CliquesFound, int64(n))
	met.Inc(telemetry.LevelsCompleted)
	return nil
}

// corePar is the Par for the terminal-core fallback, which runs on the
// coordinator goroutine rather than inside an executor: same worker width,
// with the split gate on a guard over the run's memory budget.
func corePar(opts Options) mcealg.Par {
	guard := resguard.New(opts.MemoryBudget, opts.Metrics)
	return mcealg.Par{Workers: opts.IntraBlockParallelism, SplitGate: guard.OverBudget}
}

// wholeGraphBlock wraps g as a single all-kernel block so combo selectors
// can inspect it uniformly.
func wholeGraphBlock(g *graph.Graph) *decomp.Block {
	kernel := make([]int32, g.N())
	orig := make([]int32, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		kernel[v] = v
		orig[v] = v
	}
	return &decomp.Block{Graph: g, Orig: orig, Kernel: kernel}
}
