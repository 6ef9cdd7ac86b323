// Package mce enumerates all maximal cliques of very large scale-free
// networks with the two-level distributed decomposition of Conte, De
// Virgilio, Maccioni, Patrignani and Torlone, "Finding All Maximal Cliques
// in Very Large Social Networks" (EDBT 2016).
//
// The engine splits the network into feasible nodes (whose neighbourhood
// fits a block of m nodes) and hub nodes (whose neighbourhood does not),
// partitions the feasible side into small dense blocks that are processed
// independently — locally in parallel or on remote TCP workers — and
// recurses on the hub-induced subgraph, so that no clique is lost no matter
// how small the blocks are. Per block, a decision tree picks the fastest of
// twelve Bron–Kerbosch-family algorithm/data-structure combinations.
//
// Quick start:
//
//	g, _, err := mce.Load("network.txt") // SNAP-style edge list
//	if err != nil { ... }
//	res, err := mce.Enumerate(g)
//	if err != nil { ... }
//	for _, clique := range res.Cliques { ... }
//
// Block size defaults to half the maximum degree (the m/d = 0.5 saddle
// point of the paper's Figure 8) and can be tuned with WithBlockSize or
// WithBlockRatio. WithWorkers distributes block analysis over mceworker
// processes.
package mce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mce/internal/cluster"
	"mce/internal/core"
	"mce/internal/gen"
	"mce/internal/gio"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// Graph is a simple undirected graph with dense int32 node IDs.
// Build one with NewBuilder, FromEdges or Load.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Edge is an undirected edge.
type Edge = graph.Edge

// LabelMap translates between external node labels and dense IDs.
type LabelMap = gio.LabelMap

// Stats describes a completed enumeration; see the field docs in
// internal/core.
type Stats = core.Stats

// Result is the outcome of Enumerate: every maximal clique (sorted node IDs,
// deterministic order), the recursion level each was found at (level ≥ 1
// means a clique made of hub nodes only), and run statistics.
type Result = core.Result

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a normalised graph (undirected, deduplicated, no self
// loops) with n nodes from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Load reads a graph from disk: whitespace-separated edge lists (SNAP
// style) by default, the paper's ⟨n1, e, n2⟩ triple format for ".triples"
// files. The LabelMap records how external labels map to dense IDs.
func Load(path string) (*Graph, *LabelMap, error) { return gio.LoadFile(path) }

// LoadBounded reads the same formats as Load but in two passes, never
// materialising an intermediate edge buffer — roughly halving peak memory
// on inputs that push against RAM.
func LoadBounded(path string) (*Graph, *LabelMap, error) { return gio.LoadFileBounded(path) }

// Save writes a graph to disk in the format selected by the extension,
// mirroring Load.
func Save(path string, g *Graph) error { return gio.SaveFile(path, g) }

// TelemetrySnapshot is a point-in-time view of the engine's metrics; see
// the field docs in internal/telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryEngine accumulates live metrics for a run. Obtain one with
// NewTelemetryEngine, pass it via WithTelemetryEngine, and snapshot it at
// any time — including from another goroutine while the run is in flight
// (e.g. an HTTP debug handler).
type TelemetryEngine = telemetry.Engine

// NewTelemetryEngine returns an empty telemetry engine.
func NewTelemetryEngine() *TelemetryEngine { return telemetry.NewEngine() }

// config collects the functional options.
type config struct {
	core             core.Options
	workers          []string
	cliOpts          cluster.ClientOptions
	report           func(DialReport)
	healthReport     func(HealthReport)
	progress         func(TelemetrySnapshot)
	progressInterval time.Duration
	checkpointDir    string
	checkpointWarn   func(error)
	poisonReport     func([]PoisonVerdict)
}

// Option customises Enumerate.
type Option func(*config) error

// WithBlockSize fixes m, the maximum number of nodes per block.
func WithBlockSize(m int) Option {
	return func(c *config) error {
		if m < 2 {
			return fmt.Errorf("mce: block size %d is too small (need ≥ 2)", m)
		}
		c.core.BlockSize = m
		return nil
	}
}

// WithBlockRatio sets m as a fraction of the maximum degree, the m/d
// parameter of the paper's experiments (0 < ratio ≤ 1).
func WithBlockRatio(ratio float64) Option {
	return func(c *config) error {
		if ratio <= 0 || ratio > 1 {
			return fmt.Errorf("mce: block ratio %v out of (0, 1]", ratio)
		}
		c.core.BlockRatio = ratio
		return nil
	}
}

// WithParallelism bounds the local block-analysis workers (default:
// GOMAXPROCS).
func WithParallelism(workers int) Option {
	return func(c *config) error {
		if workers < 1 {
			return fmt.Errorf("mce: parallelism %d is not positive", workers)
		}
		c.core.Parallelism = workers
		return nil
	}
}

// WithIntraBlockParallelism sets the work-stealing worker count inside a
// single block's Bron–Kerbosch enumeration (and the terminal core's). With
// n > 1 the combo selector upgrades BitSets picks on large blocks to the
// BitSetsParallel execution mode, so one dense block — typically the
// terminal hub core — no longer serializes the run on a single goroutine.
// It composes multiplicatively with WithParallelism (each block worker
// spawns its own pool of n), so keep workers × n around GOMAXPROCS. The
// result — every clique and its position in the output — is bit-identical
// at every n; n = 1 keeps the sequential recursion.
func WithIntraBlockParallelism(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("mce: intra-block parallelism %d is not positive", n)
		}
		c.core.IntraBlockParallelism = n
		return nil
	}
}

// WithAlgorithm bypasses the decision tree and uses one algorithm/structure
// combination for every block. Valid names are "BKPivot", "Tomita",
// "Eppstein", "XPivot" and "Matrix", "Lists", "BitSets".
func WithAlgorithm(algorithm, structure string) Option {
	return func(c *config) error {
		combo, err := ParseCombo(algorithm, structure)
		if err != nil {
			return err
		}
		c.core.FixedCombo = &combo
		return nil
	}
}

// WithMinBlockAdjacency sets the density threshold of the greedy block
// growth: a candidate joins a block only when it has at least k edges into
// the block's kernels.
func WithMinBlockAdjacency(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("mce: min block adjacency %d is not positive", k)
		}
		c.core.Block.MinAdjacency = k
		return nil
	}
}

// WithMaxLevels caps the hub recursion depth; deeper levels are enumerated
// directly (completeness is preserved). Mostly useful against adversarial
// inputs like the Theorem 1 chain.
func WithMaxLevels(levels int) Option {
	return func(c *config) error {
		if levels < 1 {
			return fmt.Errorf("mce: max levels %d is not positive", levels)
		}
		c.core.MaxLevels = levels
		return nil
	}
}

// WithHeaviestFirst dispatches the estimated-heaviest blocks first
// (longest-processing-time scheduling), which tightens the parallel
// makespan when block costs are skewed. Results are unchanged.
func WithHeaviestFirst() Option {
	return func(c *config) error {
		c.core.Schedule = core.ScheduleLPT
		return nil
	}
}

// WithWorkers distributes block analysis over mceworker processes at the
// given TCP addresses.
func WithWorkers(addrs ...string) Option {
	return func(c *config) error {
		if len(addrs) == 0 {
			return fmt.Errorf("mce: WithWorkers needs at least one address")
		}
		c.workers = append([]string(nil), addrs...)
		return nil
	}
}

// WithWorkerCompression negotiates DEFLATE on the worker links opened by
// WithWorkers, trading CPU for bandwidth on slow interconnects.
func WithWorkerCompression() Option {
	return func(c *config) error {
		c.cliOpts.Compress = true
		return nil
	}
}

// WithWorkerStreams opens n parallel streams per worker address so a
// multi-core worker can process several blocks at once.
func WithWorkerStreams(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("mce: worker streams %d is not positive", n)
		}
		c.cliOpts.ConnectionsPerWorker = n
		return nil
	}
}

// WithTaskTimeout bounds each distributed task round trip: a worker that
// does not answer within d is retired and its block requeued elsewhere, so
// a hung worker cannot stall the run. The default (without this option)
// derives a generous envelope from the block size; a negative d disables
// deadlines entirely.
func WithTaskTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d == 0 {
			return fmt.Errorf("mce: task timeout 0 is ambiguous (omit the option for the derived default, pass negative to disable)")
		}
		c.cliOpts.TaskTimeout = d
		return nil
	}
}

// WithTaskRetries sets the per-block transport-failure budget: a block
// whose round trip fails on k distinct worker connections is declared a
// poison task and the run fails deterministically with diagnostics
// (cluster.PoisonTaskError) instead of cascading through the cluster.
// The default is 3; negative means unlimited retries.
func WithTaskRetries(k int) Option {
	return func(c *config) error {
		if k == 0 {
			return fmt.Errorf("mce: task retries 0 is ambiguous (omit the option for the default of 3, pass negative for unlimited)")
		}
		c.cliOpts.TaskRetries = k
		return nil
	}
}

// WithAutoReconnect re-dials dead workers in the background with
// exponential backoff and jitter, so capacity lost to a worker restart
// returns on its own — even to a batch already in flight.
func WithAutoReconnect() Option {
	return func(c *config) error {
		c.cliOpts.AutoReconnect = true
		return nil
	}
}

// WithHedgedDispatch enables speculative re-dispatch of straggling blocks
// on distributed runs: a block in flight for longer than twice the 90th
// percentile of its level's observed round trips is duplicated onto
// another worker and the first result wins. Lemma 1 determinism makes the
// duplicate's answer identical, so the output is exactly the same — only
// the tail latency of a slow or degraded worker stops dominating the run.
func WithHedgedDispatch() Option {
	return func(c *config) error {
		c.cliOpts.Hedge = true
		return nil
	}
}

// WithMemoryBudget bounds the coordinator's appetite: while the process
// heap is above budget bytes, block dispatch pauses (local and
// distributed) instead of buffering more results toward an OOM kill. One
// block always stays in flight, so the run degrades to serial execution,
// never deadlocks.
func WithMemoryBudget(budget int64) Option {
	return func(c *config) error {
		if budget <= 0 {
			return fmt.Errorf("mce: memory budget %d is not positive", budget)
		}
		c.core.MemoryBudget = budget
		c.cliOpts.MemoryBudget = budget
		return nil
	}
}

// HealthReport summarises per-worker health scoring; see
// cluster.HealthReport.
type HealthReport = cluster.HealthReport

// WithWorkerHealthReport invokes fn with the per-worker health summary —
// EWMA latency and error scores, corrupt verdicts, quarantine records —
// when a distributed run finishes, successfully or not. Use it to surface
// which workers the run leaned on and which it had to bench.
func WithWorkerHealthReport(fn func(HealthReport)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithWorkerHealthReport needs a callback")
		}
		c.healthReport = fn
		return nil
	}
}

// WithTelemetry records metrics during the run and attaches the final
// snapshot to Stats.Telemetry. Without it (or one of the other telemetry
// options) the instrumentation is disabled entirely and the hot paths pay
// nothing for it.
func WithTelemetry() Option {
	return func(c *config) error {
		if c.core.Metrics == nil {
			c.core.Metrics = telemetry.NewEngine()
		}
		return nil
	}
}

// WithTelemetryEngine records metrics into a caller-owned engine, so the
// same counters can be shared with a debug HTTP server or snapshotted
// mid-run. Implies WithTelemetry.
func WithTelemetryEngine(e *TelemetryEngine) Option {
	return func(c *config) error {
		if e == nil {
			return fmt.Errorf("mce: WithTelemetryEngine needs an engine")
		}
		c.core.Metrics = e
		return nil
	}
}

// WithProgress delivers a live telemetry snapshot to fn every interval
// while the run is in flight, plus one final snapshot when it completes —
// so fn always observes the run at least once, however short it was. fn is
// called from a dedicated goroutine and must not block for long. Implies
// WithTelemetry.
func WithProgress(fn func(TelemetrySnapshot), interval time.Duration) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithProgress needs a callback")
		}
		if interval <= 0 {
			return fmt.Errorf("mce: progress interval %v is not positive", interval)
		}
		c.progress = fn
		c.progressInterval = interval
		return nil
	}
}

// WithCheckpoint makes the run crash-safe: a durable journal in dir records
// the run's identity and every block's lifecycle, each completed block's
// cliques are persisted in an idempotent per-block segment, and a run
// started against a directory holding prior state resumes — completed
// blocks load from disk (Stats.ResumedBlocks counts them) and only the
// remainder is re-analysed. The directory is created when absent; resuming
// with a different graph or different plan-affecting options is refused
// with a clear error. Journal appends are fsync'd, so checkpointing trades
// a little write latency for surviving SIGKILL.
//
// Checkpointing requires the accumulating Enumerate path;
// EnumerateStream rejects it (a resume would re-emit cliques the consumer
// already saw).
func WithCheckpoint(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("mce: WithCheckpoint needs a directory")
		}
		c.checkpointDir = dir
		return nil
	}
}

// HasCheckpoint reports whether dir holds prior run state a WithCheckpoint
// run would resume.
func HasCheckpoint(dir string) bool { return runlog.HasJournal(dir) }

// ErrCheckpointMismatch is wrapped by the error Enumerate returns when the
// -checkpoint directory belongs to a different run: another graph, other
// plan-affecting options, or an unreadable journal that cannot be trusted
// to resume. Match with errors.Is to distinguish "refuse to resume" from
// ordinary failures — mcefind exits with a dedicated code for it.
var ErrCheckpointMismatch = runlog.ErrIdentityMismatch

// WithCheckpointWarning invokes fn (once) if a write failure — a full
// disk, a permissions change — disables checkpointing mid-run. The run
// itself continues and completes with correct results; only crash safety
// is lost from that point on, and Stats.CheckpointDegraded reports it.
// Without this option a checkpoint failure is still non-fatal, just
// unannounced until the final Stats. fn must not call back into the
// enumeration. Implies nothing about WithCheckpoint — it is ignored when
// checkpointing is off.
func WithCheckpointWarning(fn func(error)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithCheckpointWarning needs a callback")
		}
		c.checkpointWarn = fn
		return nil
	}
}

// PoisonVerdict describes one block skipped as a poison task; see
// cluster.PoisonTaskError.
type PoisonVerdict = cluster.PoisonTaskError

// WithSkipPoisonTasks downgrades poison-task verdicts (a block that failed
// its round trip on the full retry budget of distinct workers) from
// run-fatal errors to recorded skips: the run completes without the
// affected blocks' cliques and Stats.SkippedBlocks counts them. The result
// is then explicitly incomplete — check the count, and use
// WithPoisonReport to receive the per-block diagnostics.
func WithSkipPoisonTasks() Option {
	return func(c *config) error {
		c.cliOpts.SkipPoisonTasks = true
		return nil
	}
}

// WithPoisonReport invokes fn once at the end of a run that skipped poison
// tasks, with one verdict per skipped block (oldest first). Only fires
// under WithSkipPoisonTasks with at least one skip.
func WithPoisonReport(fn func([]PoisonVerdict)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithPoisonReport needs a callback")
		}
		c.poisonReport = fn
		return nil
	}
}

// DialReport describes how the worker dial went; see cluster.DialReport.
type DialReport = cluster.DialReport

// WithWorkerReport invokes fn with the dial report once the worker
// connections are up, letting callers surface a degraded start (some
// workers unreachable) instead of discovering the missing capacity from a
// slow run.
func WithWorkerReport(fn func(DialReport)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithWorkerReport needs a callback")
		}
		c.report = fn
		return nil
	}
}

// ParseCombo resolves algorithm and structure names to an internal combo.
func ParseCombo(algorithm, structure string) (mcealg.Combo, error) {
	var combo mcealg.Combo
	switch algorithm {
	case "BKPivot", "bkpivot":
		combo.Alg = mcealg.BKPivot
	case "Tomita", "tomita":
		combo.Alg = mcealg.Tomita
	case "Eppstein", "eppstein":
		combo.Alg = mcealg.Eppstein
	case "XPivot", "xpivot":
		combo.Alg = mcealg.XPivot
	default:
		return combo, fmt.Errorf("mce: unknown algorithm %q (want BKPivot, Tomita, Eppstein or XPivot)", algorithm)
	}
	switch structure {
	case "Matrix", "matrix":
		combo.Struct = mcealg.Matrix
	case "Lists", "lists":
		combo.Struct = mcealg.Lists
	case "BitSets", "bitsets":
		combo.Struct = mcealg.BitSets
	default:
		return combo, fmt.Errorf("mce: unknown structure %q (want Matrix, Lists or BitSets)", structure)
	}
	return combo, nil
}

// Enumerate returns every maximal clique of g.
func Enumerate(g *Graph, opts ...Option) (*Result, error) {
	return EnumerateContext(context.Background(), g, opts...)
}

// EnumerateContext is Enumerate with cancellation: cancelling ctx stops
// the run between recursion levels and cancels block batches already in
// flight, locally and on remote workers.
func EnumerateContext(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	var res *Result
	_, err := run(ctx, g, opts, func(o core.Options) (*Stats, error) {
		var err error
		if res, err = core.FindMaxCliquesContext(ctx, g, o); err != nil {
			return nil, err
		}
		return &res.Stats, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run wraps a core entry point, enumerate, in everything Enumerate and
// EnumerateStream share: it resolves the options, dials the workers (and
// reports their health however the run ends), opens the checkpoint, drives
// the WithProgress ticker, and records poison-task skips in the Stats
// enumerate returns.
func run(ctx context.Context, g *Graph, opts []Option, enumerate func(core.Options) (*Stats, error)) (*Stats, error) {
	cfg, client, err := setup(ctx, opts)
	if err != nil {
		return nil, err
	}
	if client != nil {
		defer client.Close()
		if cfg.healthReport != nil {
			// The health summary fires however the run ends — a cancelled
			// or failed run is exactly when the benched-worker record
			// matters most.
			defer func() { cfg.healthReport(client.HealthReport()) }()
		}
	}
	if cfg.checkpointDir != "" {
		// The checkpoint opens here, not in setup: its identity needs the
		// graph, which options never see.
		cp, err := runlog.Open(cfg.checkpointDir, core.CheckpointIdentity(g, cfg.core), runlog.Options{Metrics: cfg.core.Metrics, OnDegrade: cfg.checkpointWarn})
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		cfg.core.Checkpoint = cp
	}
	defer cfg.startProgress()()
	stats, err := enumerate(cfg.core)
	if err != nil {
		return nil, err
	}
	if client != nil {
		if vs := client.PoisonVerdicts(); len(vs) > 0 {
			stats.SkippedBlocks = len(vs)
			if cfg.poisonReport != nil {
				cfg.poisonReport(vs)
			}
		}
	}
	return stats, nil
}

// startProgress launches the WithProgress ticker goroutine and returns its
// stop function, which delivers the guaranteed final snapshot. A no-op when
// WithProgress was not given.
func (c *config) startProgress() (stop func()) {
	if c.progress == nil {
		return func() {}
	}
	eng := c.core.Metrics // setup creates it whenever progress is requested
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(c.progressInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.progress(eng.Snapshot())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		c.progress(eng.Snapshot())
	}
}

// setup resolves the options and dials workers when requested; ctx bounds
// the dialling, so a caller's cancellation is honoured before the first
// block ships.
func setup(ctx context.Context, opts []Option) (*config, *cluster.Client, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, nil, err
		}
	}
	if cfg.progress != nil && cfg.core.Metrics == nil {
		cfg.core.Metrics = telemetry.NewEngine()
	}
	// The cluster client shares the run's engine, so coordinator-side wire
	// metrics land in the same snapshot.
	cfg.cliOpts.Metrics = cfg.core.Metrics
	if len(cfg.workers) == 0 {
		return &cfg, nil, nil
	}
	client, err := cluster.DialContext(ctx, cfg.workers, cfg.cliOpts)
	if err != nil {
		return nil, nil, err
	}
	if cfg.report != nil {
		cfg.report(client.DialReport())
	}
	cfg.core.Executor = client
	return &cfg, client, nil
}

// CountMaxCliques returns only the number of maximal cliques, streaming
// internally so no result set is accumulated.
func CountMaxCliques(g *Graph, opts ...Option) (int, error) {
	n := 0
	_, err := EnumerateStream(g, func([]int32, int) { n++ }, opts...)
	return n, err
}

// EnumerateStream is Enumerate without result accumulation: emit receives
// each maximal clique as soon as its block batch completes (ascending node
// IDs; copy the slice to retain it) together with the hub recursion level
// it was found at. Use it when the clique family may not fit in memory.
// Both run the same recursion — Enumerate only collects what
// EnumerateStream emits — so the cliques, their order and levels, and the
// Stats counts match Enumerate exactly, poison-task skips
// (Stats.SkippedBlocks, WithPoisonReport) and WithWorkerHealthReport
// included. WithCheckpoint is refused.
func EnumerateStream(g *Graph, emit func(clique []int32, hubLevel int), opts ...Option) (*Stats, error) {
	return EnumerateStreamContext(context.Background(), g, emit, opts...)
}

// EnumerateStreamContext is EnumerateStream with cancellation, mirroring
// EnumerateContext.
func EnumerateStreamContext(ctx context.Context, g *Graph, emit func(clique []int32, hubLevel int), opts ...Option) (*Stats, error) {
	// Applied after the caller's options, so it sees whether any of them
	// asked for a checkpoint — before a worker is dialled or a directory
	// created.
	opts = append(opts[:len(opts):len(opts)], func(c *config) error {
		if c.checkpointDir != "" {
			return fmt.Errorf("mce: WithCheckpoint is not supported with streaming enumeration (a resume would re-emit cliques already delivered); use Enumerate")
		}
		return nil
	})
	return run(ctx, g, opts, func(o core.Options) (*Stats, error) {
		return core.StreamContext(ctx, g, o, emit)
	})
}

// StartLocalWorkers launches n block-analysis workers on ephemeral
// localhost ports, for tests and single-machine distributed runs. Call stop
// to shut them down.
func StartLocalWorkers(n int) (addrs []string, stop func(), err error) {
	return cluster.StartLocal(n)
}

// GenerateBarabasiAlbert returns a scale-free preferential-attachment graph
// with n nodes, k edges per new node.
func GenerateBarabasiAlbert(n, k int, seed int64) *Graph {
	return gen.BarabasiAlbert(n, k, seed)
}

// GenerateErdosRenyi returns a G(n, p) random graph.
func GenerateErdosRenyi(n int, p float64, seed int64) *Graph {
	return gen.ErdosRenyi(n, p, seed)
}

// GenerateSocialNetwork returns a clique-rich scale-free graph (Holme–Kim
// preferential attachment with triad probability pt), the closest synthetic
// stand-in for friendship networks.
func GenerateSocialNetwork(n, k int, pt float64, seed int64) *Graph {
	return gen.HolmeKim(n, k, pt, seed)
}
