package telemetry

import (
	"strconv"
	"sync/atomic"
	"time"
)

// NumCombos is the number of algorithm/data-structure combinations the
// engine tracks per-combo statistics for — the 4×3 grid of the paper's
// Table 1 plus the four BitSetsParallel combos of the intra-block parallel
// mode. Indices come from mcealg.Combo.Index (structures outer, algorithms
// inner); telemetry itself stays independent of that package and learns the
// display label of each slot lazily from the caller.
const NumCombos = 16

// comboCell is one slot of the per-combo pick/timing distribution.
type comboCell struct {
	label  atomic.Pointer[string]
	picks  atomic.Int64 // decision-tree selections of this combo
	blocks atomic.Int64 // blocks analysed with this combo
	ns     atomic.Int64 // total analysis time, nanoseconds
}

// Metric names one counter or gauge of an Engine. Every Metric is reported
// in the Snapshot field of the same name.
type Metric int

const (
	// Decomposition (internal/core).
	BlocksBuilt        Metric = iota // second-level blocks constructed
	KernelNodes                      // total kernel entries across blocks
	BorderNodes                      // total border entries across blocks
	VisitedNodes                     // total visited entries across blocks
	LevelsCompleted                  // first-level recursion levels finished
	CliquesFound                     // cliques emitted by block analysis (pre-filter)
	HubCliquesFiltered               // hub-side cliques dropped by the Lemma 1 filter
	FilterNs                         // total Lemma 1 filter time, nanoseconds
	DecompNs                         // total CUT + BLOCKS + combo-pick time, nanoseconds
	QueueDepth                       // gauge: blocks queued for analysis right now

	// Block analysis (internal/core executors, internal/cluster worker).
	BlocksAnalyzed // blocks fully analysed

	// Algorithm internals (internal/mcealg, merged per block).
	RecursionNodes  // MCE recursion tree nodes expanded
	PivotSelections // pivot choices made

	// Cluster coordinator (internal/cluster.Client).
	TasksInFlight  // gauge: tasks currently on the wire or being analysed
	TaskRetries    // transport failures that requeued a block
	Reconnects     // dead worker connections revived
	PoisonTasks    // blocks that exhausted their retry budget
	CorruptResults // checksum mismatches detected (either direction)
	BytesSent      // estimated payload bytes shipped
	BytesReceived  // estimated payload bytes received

	// Straggler resilience (internal/cluster hedged dispatch + health).
	HedgedDispatches   // speculative duplicate dispatches issued
	HedgeWins          // blocks whose speculative copy finished first
	HedgeWasted        // duplicate results discarded by first-wins dedup
	WorkersQuarantined // health-scoring quarantine entries
	WorkerProbes       // probe dispatches to quarantined workers

	// Resource guardrails (internal/resguard, internal/runlog).
	BackpressurePauses // dispatches paused by the memory guard
	BackpressureNs     // total time spent paused, nanoseconds
	CheckpointDegraded // checkpoint sessions that disabled checkpointing mid-run (0 or 1 per run)

	// Cluster worker (internal/cluster.Worker).
	TasksServed // tasks answered by this worker
	TaskErrors  // tasks answered with an in-band application error
	TaskPanics  // block analyses that panicked (isolated in-band)

	// Crash-safe checkpointing (internal/runlog).
	CheckpointRecords       // journal records appended this session
	CheckpointBytes         // journal bytes appended this session
	CheckpointReplayNs      // time spent replaying the journal on open
	CheckpointBlocksSkipped // journaled-done blocks served from segments instead of re-analysed

	// Query serving (cmd/mced, internal/cliqdb).
	QueriesAdmitted    // requests past admission control
	QueriesShed        // requests rejected with 429 by admission control
	QueriesTimedOut    // admitted requests that hit their deadline (504)
	CacheHits          // result-cache hits
	CacheMisses        // result-cache misses (query executed)
	SingleflightShared // callers that piggybacked on an in-flight query
	DegradedServes     // queries answered from a stale index during rebuild
	IndexRebuilds      // index self-heals / explicit rebuilds completed

	numMetrics
)

// Engine is the live metrics registry for one enumeration run or one worker
// process. It is safe for concurrent update. A nil *Engine means telemetry
// is disabled and every method is safe on it — updates do nothing,
// NewBlockInstr returns nil and Snapshot the zero Snapshot — so
// instrumented code calls the methods unconditionally.
//
// One Engine type serves every role (coordinator, local pool, remote
// worker); metrics irrelevant to a role simply stay zero and are easy to
// read as such in the snapshot.
type Engine struct {
	metrics [numMetrics]atomic.Int64

	// blockNs is the per-block analysis wall-time distribution; roundTripNs
	// is the coordinator-side task round-trip distribution (send → analyse →
	// receive, including simulated link costs); queryNs is the admitted-query
	// latency distribution on the serving path.
	blockNs     *Histogram
	roundTripNs *Histogram
	queryNs     *Histogram

	combos    [NumCombos]comboCell
	endpoints [NumEndpoints]endpointCell
}

// NewEngine returns a ready-to-use engine.
func NewEngine() *Engine {
	return &Engine{
		blockNs:     NewDurationHistogram(),
		roundTripNs: NewDurationHistogram(),
		queryNs:     NewDurationHistogram(),
	}
}

// Add moves metric m by n: n ≥ 0 for counters, either sign for the gauges.
//
//mce:hotpath instrumentation fast path
func (e *Engine) Add(m Metric, n int64) {
	if e == nil {
		return
	}
	e.metrics[m].Add(n)
}

// Inc adds 1 to metric m.
//
//mce:hotpath instrumentation fast path
func (e *Engine) Inc(m Metric) { e.Add(m, 1) }

// ObserveRoundTrip records one coordinator-side task round trip.
func (e *Engine) ObserveRoundTrip(d time.Duration) {
	if e == nil {
		return
	}
	e.roundTripNs.Observe(int64(d))
}

// ComboPicked records one decision-tree (or fixed-combo) selection. label is
// the display name ("[Lists/Tomita]"); it is stored on first use so the
// snapshot can name the slot without this package importing mcealg.
//
//mce:hotpath per-block combo accounting
func (e *Engine) ComboPicked(i int, label string) {
	if e == nil || i < 0 || i >= NumCombos {
		return
	}
	c := &e.combos[i]
	if c.label.Load() == nil {
		l := label
		c.label.Store(&l)
	}
	c.picks.Add(1)
}

// ComboAnalyzed records one completed block analysis with the given combo:
// the per-combo block count and total time, the global BlocksAnalyzed
// counter and the block-time histogram.
//
//mce:hotpath per-block combo accounting
func (e *Engine) ComboAnalyzed(i int, label string, d time.Duration) {
	if e == nil {
		return
	}
	e.Inc(BlocksAnalyzed)
	e.blockNs.Observe(int64(d))
	if i < 0 || i >= NumCombos {
		return
	}
	c := &e.combos[i]
	if c.label.Load() == nil {
		l := label
		c.label.Store(&l)
	}
	c.blocks.Add(1)
	c.ns.Add(int64(d))
}

// BlockInstr accumulates the single-threaded per-block algorithm counters
// (plain fields, no atomics) so the MCE recursion itself never touches
// shared state; the executor merges it into the engine once per block.
type BlockInstr struct {
	RecursionNodes  int64
	PivotSelections int64
}

// NewBlockInstr returns per-worker block scratch, or nil when e is nil, so
// the telemetry-disabled path allocates nothing.
func (e *Engine) NewBlockInstr() *BlockInstr {
	if e == nil {
		return nil
	}
	return &BlockInstr{}
}

// Add accumulates one block's recursion counts; a nil receiver ignores them.
//
//mce:hotpath per-block counter accumulation
func (ins *BlockInstr) Add(recursionNodes, pivotSelections int64) {
	if ins == nil {
		return
	}
	ins.RecursionNodes += recursionNodes
	ins.PivotSelections += pivotSelections
}

// MergeBlockInstr folds one block's counters into the shared engine (two
// atomic adds) and resets ins for reuse.
//
//mce:hotpath per-block counter merge
func (e *Engine) MergeBlockInstr(ins *BlockInstr) {
	if e == nil || ins == nil {
		return
	}
	e.Add(RecursionNodes, ins.RecursionNodes)
	e.Add(PivotSelections, ins.PivotSelections)
	*ins = BlockInstr{}
}

// ComboStat is one row of the per-combo distribution in a Snapshot.
type ComboStat struct {
	Combo   string `json:"combo"`
	Picks   int64  `json:"picks"`
	Blocks  int64  `json:"blocks"`
	TotalNs int64  `json:"total_ns"`
}

// Snapshot is a point-in-time JSON view of an Engine. Each int64 counter
// field holds the Metric of the same name; Combos lists only slots that
// were ever picked or analysed.
type Snapshot struct {
	BlocksBuilt        int64 `json:"blocks_built"`
	KernelNodes        int64 `json:"kernel_nodes"`
	BorderNodes        int64 `json:"border_nodes"`
	VisitedNodes       int64 `json:"visited_nodes"`
	LevelsCompleted    int64 `json:"levels_completed"`
	CliquesFound       int64 `json:"cliques_found"`
	HubCliquesFiltered int64 `json:"hub_cliques_filtered"`
	FilterNs           int64 `json:"filter_ns"`
	DecompNs           int64 `json:"decomp_ns"`
	QueueDepth         int64 `json:"queue_depth"`

	BlocksAnalyzed int64 `json:"blocks_analyzed"`

	RecursionNodes  int64 `json:"recursion_nodes"`
	PivotSelections int64 `json:"pivot_selections"`

	TasksInFlight  int64 `json:"tasks_in_flight"`
	TaskRetries    int64 `json:"task_retries"`
	Reconnects     int64 `json:"reconnects"`
	PoisonTasks    int64 `json:"poison_tasks"`
	CorruptResults int64 `json:"corrupt_results"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesReceived  int64 `json:"bytes_received"`

	HedgedDispatches   int64 `json:"hedged_dispatches"`
	HedgeWins          int64 `json:"hedge_wins"`
	HedgeWasted        int64 `json:"hedge_wasted"`
	WorkersQuarantined int64 `json:"workers_quarantined"`
	WorkerProbes       int64 `json:"worker_probes"`

	BackpressurePauses int64 `json:"backpressure_pauses"`
	BackpressureNs     int64 `json:"backpressure_ns"`
	CheckpointDegraded int64 `json:"checkpoint_degraded"`

	TasksServed int64 `json:"tasks_served"`
	TaskErrors  int64 `json:"task_errors"`
	TaskPanics  int64 `json:"task_panics"`

	CheckpointRecords       int64 `json:"checkpoint_records"`
	CheckpointBytes         int64 `json:"checkpoint_bytes"`
	CheckpointReplayNs      int64 `json:"checkpoint_replay_ns"`
	CheckpointBlocksSkipped int64 `json:"checkpoint_blocks_skipped"`

	QueriesAdmitted    int64 `json:"queries_admitted"`
	QueriesShed        int64 `json:"queries_shed"`
	QueriesTimedOut    int64 `json:"queries_timed_out"`
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	SingleflightShared int64 `json:"singleflight_shared"`
	DegradedServes     int64 `json:"degraded_serves"`
	IndexRebuilds      int64 `json:"index_rebuilds"`

	BlockNs     HistogramSnapshot `json:"block_ns"`
	RoundTripNs HistogramSnapshot `json:"round_trip_ns"`
	QueryNs     HistogramSnapshot `json:"query_ns"`

	Combos    []ComboStat    `json:"combos,omitempty"`
	Endpoints []EndpointStat `json:"endpoints,omitempty"`
}

// fields maps every Metric to its Snapshot field. It is the only place the
// two are tied together.
func (s *Snapshot) fields() [numMetrics]*int64 {
	return [numMetrics]*int64{
		BlocksBuilt:             &s.BlocksBuilt,
		KernelNodes:             &s.KernelNodes,
		BorderNodes:             &s.BorderNodes,
		VisitedNodes:            &s.VisitedNodes,
		LevelsCompleted:         &s.LevelsCompleted,
		CliquesFound:            &s.CliquesFound,
		HubCliquesFiltered:      &s.HubCliquesFiltered,
		FilterNs:                &s.FilterNs,
		DecompNs:                &s.DecompNs,
		QueueDepth:              &s.QueueDepth,
		BlocksAnalyzed:          &s.BlocksAnalyzed,
		RecursionNodes:          &s.RecursionNodes,
		PivotSelections:         &s.PivotSelections,
		TasksInFlight:           &s.TasksInFlight,
		TaskRetries:             &s.TaskRetries,
		Reconnects:              &s.Reconnects,
		PoisonTasks:             &s.PoisonTasks,
		CorruptResults:          &s.CorruptResults,
		BytesSent:               &s.BytesSent,
		BytesReceived:           &s.BytesReceived,
		HedgedDispatches:        &s.HedgedDispatches,
		HedgeWins:               &s.HedgeWins,
		HedgeWasted:             &s.HedgeWasted,
		WorkersQuarantined:      &s.WorkersQuarantined,
		WorkerProbes:            &s.WorkerProbes,
		BackpressurePauses:      &s.BackpressurePauses,
		BackpressureNs:          &s.BackpressureNs,
		CheckpointDegraded:      &s.CheckpointDegraded,
		TasksServed:             &s.TasksServed,
		TaskErrors:              &s.TaskErrors,
		TaskPanics:              &s.TaskPanics,
		CheckpointRecords:       &s.CheckpointRecords,
		CheckpointBytes:         &s.CheckpointBytes,
		CheckpointReplayNs:      &s.CheckpointReplayNs,
		CheckpointBlocksSkipped: &s.CheckpointBlocksSkipped,
		QueriesAdmitted:         &s.QueriesAdmitted,
		QueriesShed:             &s.QueriesShed,
		QueriesTimedOut:         &s.QueriesTimedOut,
		CacheHits:               &s.CacheHits,
		CacheMisses:             &s.CacheMisses,
		SingleflightShared:      &s.SingleflightShared,
		DegradedServes:          &s.DegradedServes,
		IndexRebuilds:           &s.IndexRebuilds,
	}
}

// Snapshot captures the engine's current state; on a nil engine it is the
// zero Snapshot. It is safe to call while the run is in flight; counters
// are read individually, so totals may be off by the updates racing the
// read — fine for progress reporting.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{}
	}
	s := Snapshot{
		BlockNs:     e.blockNs.Snapshot(),
		RoundTripNs: e.roundTripNs.Snapshot(),
		QueryNs:     e.queryNs.Snapshot(),
	}
	for m, f := range s.fields() {
		*f = e.metrics[m].Load()
	}
	for i := range e.combos {
		c := &e.combos[i]
		picks, blocks := c.picks.Load(), c.blocks.Load()
		if picks == 0 && blocks == 0 {
			continue
		}
		name := "combo-" + strconv.Itoa(i)
		if l := c.label.Load(); l != nil {
			name = *l
		}
		s.Combos = append(s.Combos, ComboStat{Combo: name, Picks: picks, Blocks: blocks, TotalNs: c.ns.Load()})
	}
	for i := range e.endpoints {
		c := &e.endpoints[i]
		requests := c.requests.Load()
		if requests == 0 {
			continue
		}
		name := "endpoint-" + strconv.Itoa(i)
		if l := c.label.Load(); l != nil {
			name = *l
		}
		s.Endpoints = append(s.Endpoints, EndpointStat{
			Endpoint: name,
			Requests: requests,
			Errors:   c.errors.Load(),
			TotalNs:  c.ns.Load(),
		})
	}
	return s
}
