package cluster

import (
	"compress/flate"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mce/internal/decomp"
	"mce/internal/mcealg"
	"mce/internal/resguard"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// ClientOptions tunes the coordinator side of the cluster.
type ClientOptions struct {
	// DialTimeout bounds each worker connection attempt; 0 means 5s.
	DialTimeout time.Duration
	// TaskTimeout bounds one task round trip: send, remote analysis,
	// receive. A worker that does not answer inside the envelope is
	// retired (its connection closed, its block requeued), so a hung
	// worker can never stall AnalyzeBlocks forever. 0 derives a generous
	// envelope from the block size (30s plus 1ms per node and edge plus
	// the simulated link costs); negative disables deadlines entirely.
	TaskTimeout time.Duration
	// TaskRetries is the per-block transport-failure budget: a block
	// whose round trip has failed on this many connections is declared a
	// poison task and the batch fails deterministically with a
	// *PoisonTaskError, instead of cascading worker by worker through the
	// whole cluster. 0 means 3; negative means unlimited.
	TaskRetries int
	// SkipPoisonTasks turns a poison verdict from a batch-fatal error into
	// a recorded skip: the block's cliques are omitted from the result, the
	// verdict is retained (PoisonVerdicts), and the batch carries on. The
	// output is then explicitly incomplete — callers must surface the
	// verdicts, not swallow them; mcefind exits non-zero with a skip
	// summary.
	SkipPoisonTasks bool
	// AutoReconnect re-dials dead workers on a background goroutine with
	// exponential backoff and jitter, so capacity lost to a worker
	// restart comes back on its own — including to a batch already in
	// flight. Without it, Reconnect must be called manually.
	AutoReconnect bool
	// ReconnectBackoff is the initial pause between reconnection sweeps
	// (0 means 50ms); it doubles after every failed sweep up to
	// ReconnectMaxBackoff (0 means 2s), with up to 50% random jitter so a
	// cluster of coordinators does not thunder against a restarting
	// worker.
	ReconnectBackoff    time.Duration
	ReconnectMaxBackoff time.Duration
	// AllDeadGrace is how long an in-flight batch waits for AutoReconnect
	// to restore capacity after every worker has died before giving up;
	// 0 means 5s. Ignored when AutoReconnect is off — then the batch
	// fails as soon as the last worker dies.
	AllDeadGrace time.Duration
	// Latency is an artificial per-message delay injected before every
	// task send, simulating cluster interconnect round trips. It lets the
	// single-machine reproduction exhibit the communication overhead the
	// paper observes when many small blocks are shipped (§6.3).
	Latency time.Duration
	// BandwidthBytesPerSec throttles message payloads; 0 disables
	// throttling.
	BandwidthBytesPerSec int64
	// ConnectionsPerWorker opens this many parallel streams to each
	// worker address, letting one multi-core worker process several blocks
	// concurrently (the worker serves every connection on its own
	// goroutine). 0 means 1.
	ConnectionsPerWorker int
	// Compress negotiates DEFLATE on every stream after the handshake,
	// trading CPU for bandwidth on slow interconnects.
	Compress bool
	// Hedge enables speculative re-dispatch of straggling blocks: when a
	// block's in-flight time exceeds HedgeMultiplier × the HedgeQuantile
	// of the round trips observed so far in its level, a duplicate is
	// queued for another worker and the first result wins. Lemma 1
	// determinism makes the duplicate's answer identical, and first-wins
	// dedup keyed by the block keeps the output exactly-once.
	Hedge bool
	// HedgeQuantile is the round-trip quantile a straggler is measured
	// against; 0 means 0.9.
	HedgeQuantile float64
	// HedgeMultiplier scales the quantile into the hedge threshold; 0
	// means 2.
	HedgeMultiplier float64
	// HedgeMinDelay floors the hedge threshold so microsecond-level
	// batches do not hedge on noise; 0 means 25ms.
	HedgeMinDelay time.Duration
	// HedgeMinObservations is how many round trips the level must have
	// seen before hedging starts; 0 means 3.
	HedgeMinObservations int
	// HedgeMax caps the speculative copies per block; 0 means 1.
	HedgeMax int
	// MemoryBudget is a coordinator heap budget in bytes. While the heap
	// is above it, dispatch pauses (backpressure) instead of buffering
	// more results toward an OOM kill; one block always stays in flight so
	// the run degrades to serial execution, never deadlocks. 0 disables
	// the guard.
	MemoryBudget int64
	// Metrics, when non-nil, receives coordinator-side telemetry: tasks in
	// flight, retries, reconnects, poison/corrupt verdicts, hedging and
	// health-scoring counters, bytes on the wire and the round-trip
	// latency histogram. Nil disables all of it.
	Metrics *telemetry.Engine
}

// retryBudget resolves the TaskRetries default; < 0 means unlimited.
func (o *ClientOptions) retryBudget() int {
	if o.TaskRetries == 0 {
		return 3
	}
	return o.TaskRetries
}

// Hedge option resolvers.
func (o *ClientOptions) hedgeQuantile() float64 {
	if o.HedgeQuantile <= 0 || o.HedgeQuantile > 1 {
		return 0.9
	}
	return o.HedgeQuantile
}

func (o *ClientOptions) hedgeMultiplier() float64 {
	if o.HedgeMultiplier <= 0 {
		return 2
	}
	return o.HedgeMultiplier
}

func (o *ClientOptions) hedgeMinDelay() time.Duration {
	if o.HedgeMinDelay <= 0 {
		return 25 * time.Millisecond
	}
	return o.HedgeMinDelay
}

func (o *ClientOptions) hedgeMinObs() int {
	if o.HedgeMinObservations <= 0 {
		return 3
	}
	return o.HedgeMinObservations
}

func (o *ClientOptions) hedgeMax() int {
	if o.HedgeMax <= 0 {
		return 1
	}
	return o.HedgeMax
}

// Client is a coordinator attached to a fixed set of workers. It implements
// the core.Executor and core.ContextExecutor interfaces, so it can be
// plugged directly into FindMaxCliques.
type Client struct {
	opts   ClientOptions
	health *healthRegistry
	guard  *resguard.Guard
	mu     sync.Mutex
	conns  []*workerConn
	closed bool
	report DialReport

	// kick wakes the reconnect loop when a connection dies; done stops it.
	kick chan struct{}
	done chan struct{}

	// recruits are channels of in-flight batches waiting for revived
	// connections.
	recruitMu sync.Mutex
	recruits  map[chan *workerConn]struct{}

	// verdicts accumulates poison-task skips under SkipPoisonTasks.
	verdictMu sync.Mutex
	verdicts  []PoisonTaskError
}

// PoisonVerdicts returns the poison tasks skipped so far under
// SkipPoisonTasks, oldest first. Empty means the results are complete.
func (c *Client) PoisonVerdicts() []PoisonTaskError {
	c.verdictMu.Lock()
	defer c.verdictMu.Unlock()
	return append([]PoisonTaskError(nil), c.verdicts...)
}

func (c *Client) recordPoison(v PoisonTaskError) {
	c.verdictMu.Lock()
	c.verdicts = append(c.verdicts, v)
	c.verdictMu.Unlock()
}

// workerConn serialises access to one worker connection. conn is nil for a
// placeholder recording an address that was unreachable at Dial time (kept
// only under AutoReconnect, so the background loop can adopt the worker
// when it comes up).
type workerConn struct {
	addr   string
	conn   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	flush  func() error // non-nil when the stream is compressed
	dead   bool
	leased bool // owned by a batch runner (possibly a straggler of a returned batch)
	tasks  int
	busy   time.Duration
}

// WorkerStats describes one worker's share of the computation — the load
// skew the distributed MCE literature worries about ([38] in the paper).
type WorkerStats struct {
	Addr string
	// Tasks is the number of blocks this worker completed.
	Tasks int
	// Busy is the total round-trip time spent on this worker, including
	// the simulated link costs.
	Busy time.Duration
	// Dead reports that the connection has been retired after a failure.
	Dead bool
}

// Stats returns a snapshot of per-worker load, ordered as dialled.
func (c *Client) Stats() []WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStats, 0, len(c.conns))
	for _, wc := range c.conns {
		out = append(out, WorkerStats{Addr: wc.addr, Tasks: wc.tasks, Busy: wc.busy, Dead: wc.dead})
	}
	return out
}

// DialFailure records one worker address that could not be dialled.
type DialFailure struct {
	Addr string
	Err  error
}

// DialReport describes how a Dial went: which addresses were attempted,
// how many connections came up, and which addresses failed. A degraded
// start (some but not all workers reachable) is not an error — the run
// proceeds on the survivors — but callers should surface it rather than
// discover the missing capacity from a slow run.
type DialReport struct {
	// Addrs lists every address Dial attempted.
	Addrs []string
	// Connected is the number of connections established (streams, not
	// addresses: ConnectionsPerWorker multiplies it).
	Connected int
	// Failures lists the addresses that were unreachable.
	Failures []DialFailure
}

// Degraded reports whether some workers were unreachable at Dial time.
func (r DialReport) Degraded() bool { return len(r.Failures) > 0 }

// DialReport returns the degraded-start record of the initial Dial.
func (c *Client) DialReport() DialReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report
}

// Dial connects to every worker address. It fails unless at least one
// worker is reachable; unreachable workers are reported in the error when
// everything is down, and in DialReport when the start is merely degraded.
// With AutoReconnect, unreachable addresses are remembered and adopted by
// the background reconnect loop as soon as their workers come up.
func Dial(addrs []string, opts ClientOptions) (*Client, error) {
	return DialContext(context.Background(), addrs, opts)
}

// DialContext is Dial with cancellation: cancelling ctx abandons the
// remaining connection attempts (each individual attempt is still bounded
// by DialTimeout, and a ctx deadline earlier than the dial budget tightens
// the handshake deadline too). The context governs dialling only, not the
// returned client's lifetime — background reconnects use their own budget.
func DialContext(ctx context.Context, addrs []string, opts ClientOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.ReconnectBackoff <= 0 {
		opts.ReconnectBackoff = 50 * time.Millisecond
	}
	if opts.ReconnectMaxBackoff <= 0 {
		opts.ReconnectMaxBackoff = 2 * time.Second
	}
	if opts.AllDeadGrace <= 0 {
		opts.AllDeadGrace = 5 * time.Second
	}
	conns := opts.ConnectionsPerWorker
	if conns < 1 {
		conns = 1
	}
	c := &Client{
		opts:     opts,
		health:   newHealthRegistry(opts.Metrics),
		guard:    resguard.New(opts.MemoryBudget, opts.Metrics),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		recruits: make(map[chan *workerConn]struct{}),
	}
	c.report.Addrs = append([]string(nil), addrs...)
	for _, addr := range addrs {
		c.health.touch(addr)
	}
	var dialErrs []error
	for _, addr := range addrs {
		for i := 0; i < conns; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("cluster: dial cancelled: %w", err)
			}
			wc, err := dialWorkerContext(ctx, addr, opts.DialTimeout, opts.Compress)
			if err != nil {
				dialErrs = append(dialErrs, err)
				c.report.Failures = append(c.report.Failures, DialFailure{Addr: addr, Err: err})
				if opts.AutoReconnect {
					// Placeholders let the reconnect loop adopt the
					// address later.
					for ; i < conns; i++ {
						c.conns = append(c.conns, &workerConn{addr: addr, dead: true})
					}
				}
				break // the address is down; skip its remaining streams
			}
			c.conns = append(c.conns, wc)
			c.report.Connected++
		}
	}
	if c.report.Connected == 0 {
		return nil, fmt.Errorf("cluster: no workers reachable: %v", errors.Join(dialErrs...))
	}
	if opts.AutoReconnect {
		go c.reconnectLoop()
		if len(c.report.Failures) > 0 {
			c.kickReconnect()
		}
	}
	return c, nil
}

func dialWorker(addr string, timeout time.Duration, compress bool) (*workerConn, error) {
	return dialWorkerContext(context.Background(), addr, timeout, compress)
}

func dialWorkerContext(ctx context.Context, addr string, timeout time.Duration, compress bool) (*workerConn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	// The handshake shares the dial budget (tightened by an earlier ctx
	// deadline), so a worker that accepts but never answers cannot stall
	// Dial forever.
	deadline := time.Now().Add(timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	wc := &workerConn{addr: addr, conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if err := wc.enc.Encode(hello{Version: protocolVersion, Compress: compress}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake with %s: %w", addr, err)
	}
	var ack helloAck
	if err := wc.dec.Decode(&ack); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake ack from %s: %w", addr, err)
	}
	if ack.Version != protocolVersion {
		conn.Close()
		return nil, fmt.Errorf("cluster: worker %s speaks version %d, want %d", addr, ack.Version, protocolVersion)
	}
	if compress {
		if !ack.Compress {
			conn.Close()
			return nil, fmt.Errorf("cluster: worker %s refused compression", addr)
		}
		fr := flate.NewReader(conn)
		fw, err := flate.NewWriter(conn, flate.BestSpeed)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: compression: %w", err)
		}
		wc.enc = gob.NewEncoder(fw)
		wc.dec = gob.NewDecoder(fr)
		wc.flush = fw.Flush
	}
	return wc, nil
}

// HealthReport returns the per-worker health scoring summary: EWMA
// latency and error rates, corrupt verdicts, and the quarantine record of
// every address this client has talked to.
func (c *Client) HealthReport() HealthReport { return c.health.report() }

// lease claims a connection for a batch runner; false when the connection
// is dead or already owned.
func (c *Client) lease(wc *workerConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wc.dead || wc.leased {
		return false
	}
	wc.leased = true
	return true
}

// unlease returns a runner's connection to the pool and offers it to any
// in-flight batch — the path by which a straggler's connection rejoins
// work after its batch has already returned.
func (c *Client) unlease(wc *workerConn) {
	c.mu.Lock()
	wc.leased = false
	usable := !wc.dead && !c.closed
	c.mu.Unlock()
	if usable {
		c.offer(wc)
	}
}

// leasedConns counts live connections currently owned by some batch
// runner — capacity that can return through the recruiter.
func (c *Client) leasedConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, wc := range c.conns {
		if !wc.dead && wc.leased {
			n++
		}
	}
	return n
}

// markDead retires a connection after a transport failure and nudges the
// background reconnect loop.
func (c *Client) markDead(wc *workerConn) {
	c.mu.Lock()
	if !wc.dead {
		wc.dead = true
		if wc.conn != nil {
			wc.conn.Close()
		}
	}
	c.mu.Unlock()
	c.kickReconnect()
}

func (c *Client) kickReconnect() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// reconnectLoop re-dials dead connections whenever one dies, backing off
// exponentially (with jitter) while a worker stays down. It exits when the
// client is closed.
func (c *Client) reconnectLoop() {
	// The jitter source is seeded deterministically: reproducible runs
	// matter more here than cross-client decorrelation, which the
	// per-address dial timing provides anyway.
	rng := rand.New(rand.NewSource(1))
	backoff := c.opts.ReconnectBackoff
	for {
		select {
		case <-c.done:
			return
		case <-c.kick:
		}
		for c.deadConns() > 0 {
			if c.redialDead() > 0 {
				backoff = c.opts.ReconnectBackoff
				continue
			}
			jitter := time.Duration(rng.Int63n(int64(backoff)/2 + 1))
			t := time.NewTimer(backoff + jitter)
			select {
			case <-c.done:
				t.Stop()
				return
			case <-t.C:
			}
			backoff *= 2
			if backoff > c.opts.ReconnectMaxBackoff {
				backoff = c.opts.ReconnectMaxBackoff
			}
		}
		backoff = c.opts.ReconnectBackoff
	}
}

func (c *Client) deadConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0
	}
	n := 0
	for _, wc := range c.conns {
		if wc.dead {
			n++
		}
	}
	return n
}

// redialDead attempts one reconnection sweep over every dead connection
// and reports how many came back. Revived connections are offered to
// in-flight batches so capacity returns mid-run.
func (c *Client) redialDead() int {
	c.mu.Lock()
	var dead []int
	for i, wc := range c.conns {
		if wc.dead {
			dead = append(dead, i)
		}
	}
	c.mu.Unlock()
	revived := 0
	for _, i := range dead {
		c.mu.Lock()
		wc := c.conns[i]
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return revived
		}
		if !wc.dead {
			continue
		}
		fresh, err := dialWorker(wc.addr, c.opts.DialTimeout, c.opts.Compress)
		if err != nil {
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			fresh.conn.Close()
			return revived
		}
		// Preserve the accumulated load accounting for the address.
		fresh.tasks = wc.tasks
		fresh.busy = wc.busy
		c.conns[i] = fresh
		c.mu.Unlock()
		revived++
		c.opts.Metrics.Inc(telemetry.Reconnects)
		c.offer(fresh)
	}
	return revived
}

// offer hands a revived connection to at most one in-flight batch.
func (c *Client) offer(wc *workerConn) {
	c.recruitMu.Lock()
	defer c.recruitMu.Unlock()
	for ch := range c.recruits {
		select {
		case ch <- wc:
			return
		default:
		}
	}
}

// Reconnect re-dials every dead connection once, restoring capacity after
// worker restarts. It returns how many connections are alive afterwards;
// per-address failures are reported in the error while surviving
// connections keep working. With AutoReconnect this happens on its own.
func (c *Client) Reconnect() (int, error) {
	c.mu.Lock()
	var deadIdx []int
	for i, wc := range c.conns {
		if wc.dead {
			deadIdx = append(deadIdx, i)
		}
	}
	c.mu.Unlock()
	var errs []error
	for _, i := range deadIdx {
		c.mu.Lock()
		wc := c.conns[i]
		c.mu.Unlock()
		if !wc.dead {
			continue
		}
		fresh, err := dialWorker(wc.addr, c.opts.DialTimeout, c.opts.Compress)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		c.mu.Lock()
		fresh.tasks = wc.tasks
		fresh.busy = wc.busy
		c.conns[i] = fresh
		c.mu.Unlock()
		c.opts.Metrics.Inc(telemetry.Reconnects)
		c.offer(fresh)
	}
	c.mu.Lock()
	alive := 0
	for _, wc := range c.conns {
		if !wc.dead {
			alive++
		}
	}
	c.mu.Unlock()
	return alive, errors.Join(errs...)
}

// Workers reports how many worker connections are still alive.
func (c *Client) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := 0
	for _, wc := range c.conns {
		if !wc.dead {
			alive++
		}
	}
	return alive
}

// Close hangs up every worker connection and stops the reconnect loop. It
// is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var first error
	for _, wc := range c.conns {
		if wc.conn != nil {
			if err := wc.conn.Close(); err != nil && first == nil {
				first = err
			}
		}
		wc.dead = true
	}
	c.mu.Unlock()
	close(c.done)
	return first
}

// PoisonTaskError reports a block that exhausted its transport retry
// budget: its round trip failed on Attempts distinct connections, which
// almost always means the task itself crashes or stalls whichever worker
// it lands on. The batch fails deterministically with the per-attempt
// diagnostics instead of cascading through the rest of the cluster.
type PoisonTaskError struct {
	// Block is the failing block's index within the batch.
	Block int
	// Attempts is how many connections the block failed on.
	Attempts int
	// Causes records "addr: error" for every failed attempt, oldest
	// first.
	Causes []string
}

func (e *PoisonTaskError) Error() string {
	return fmt.Sprintf("cluster: poison task: block %d failed on %d workers: %s",
		e.Block, e.Attempts, strings.Join(e.Causes, "; "))
}

// applicationError marks worker-reported BLOCK-ANALYSIS failures.
type applicationError struct{ msg string }

func (e *applicationError) Error() string { return e.msg }

// cleanCancelError wraps a context error raised before any bytes hit the
// wire, so the runner knows the connection is still in sync and must not
// be retired.
type cleanCancelError struct{ err error }

func (e *cleanCancelError) Error() string { return e.err.Error() }
func (e *cleanCancelError) Unwrap() error { return e.err }

// corruptResultError marks a round trip whose reply arrived in sync but
// failed verification (a Corrupt verdict or a checksum mismatch). The
// stream is intact — the connection stays usable — but the answer cannot be
// trusted, so the block is retried and the worker's health score charged.
type corruptResultError struct{ msg string }

func (e *corruptResultError) Error() string { return e.msg }

// AnalyzeBlocks ships every block to some worker and gathers the cliques,
// indexed like blocks. It implements core.Executor; see
// AnalyzeBlocksContext for the failure semantics.
func (c *Client) AnalyzeBlocks(blocks []decomp.Block, combos []mcealg.Combo) ([][][]int32, error) {
	return c.AnalyzeBlocksContext(context.Background(), blocks, combos)
}

// AnalyzeBlocksContext is AnalyzeBlocks with cancellation. A worker that
// fails or times out mid-flight has its task requeued to the surviving
// workers, bounded by the per-task retry budget (TaskRetries); capacity
// revived by AutoReconnect joins the batch while it runs. The call fails
// when a task is rejected by the application (deterministic failure), when
// a task exhausts its retry budget (*PoisonTaskError), when every worker
// has died (after AllDeadGrace under AutoReconnect), or when ctx is
// cancelled — cancellation retires connections with a round trip in
// flight, because the wire protocol has no way to abandon a pending
// response. It implements core.ContextExecutor.
func (c *Client) AnalyzeBlocksContext(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo) ([][][]int32, error) {
	return c.analyzeBlocks(ctx, blocks, combos, nil, nil)
}

// AnalyzeBlocksCheckpoint is AnalyzeBlocksContext with per-block
// durability: every block carries its stable checkpoint identity on the
// wire (journaled by the coordinator, echoed by the worker), and obs is
// told the moment each block is dispatched and the moment its cliques are
// safely back — not at batch end — so a coordinator killed mid-batch
// resumes with every completed block already durable. ids must index like
// blocks. It implements core.CheckpointExecutor.
func (c *Client) AnalyzeBlocksCheckpoint(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo, ids []runlog.BlockID, obs runlog.BatchObserver) ([][][]int32, error) {
	if len(ids) != len(blocks) {
		return nil, fmt.Errorf("cluster: %d blocks but %d block IDs", len(blocks), len(ids))
	}
	return c.analyzeBlocks(ctx, blocks, combos, ids, obs)
}

// attempt is one dispatch-queue entry: a block index plus whether this
// copy is speculative (hedged).
type attempt struct {
	block int
	hedge bool
}

// flight tracks one block's in-flight attempts for the hedge monitor.
type flight struct {
	mu       sync.Mutex
	started  time.Time // dispatch time of the oldest current attempt
	inFlight int
	hedges   int // lifetime speculative copies, capped at hedgeMax
}

// hedgeTick is how often the hedge monitor re-examines in-flight blocks.
const hedgeTick = 5 * time.Millisecond

// hedgeThreshold turns the level's observed round trips into the elapsed
// time past which a block counts as straggling. Zero means "not enough
// data yet, do not hedge".
func (c *Client) hedgeThreshold(rtt *telemetry.Histogram) time.Duration {
	snap := rtt.Snapshot()
	if snap.Count < int64(c.opts.hedgeMinObs()) {
		return 0
	}
	th := time.Duration(snap.Quantile(c.opts.hedgeQuantile()) * c.opts.hedgeMultiplier())
	if th < c.opts.hedgeMinDelay() {
		th = c.opts.hedgeMinDelay()
	}
	return th
}

// analyzeBlocks is the shared batch engine behind both executor shapes.
// ids/obs are nil for plain batches.
//
// Connections are leased to the batch for its duration: the batch returns
// the moment every block has an answer (first-wins under hedging), while a
// straggling round trip keeps its connection leased until it resolves and
// only then rejoins the pool. Duplicate results — the whole point of
// hedged dispatch — are discarded by a compare-and-swap per block, which
// is sound because Lemma 1 determinism makes every copy's answer
// identical.
func (c *Client) analyzeBlocks(ctx context.Context, blocks []decomp.Block, combos []mcealg.Combo, ids []runlog.BlockID, obs runlog.BatchObserver) ([][][]int32, error) {
	if len(blocks) != len(combos) {
		return nil, fmt.Errorf("cluster: %d blocks but %d combos", len(blocks), len(combos))
	}
	out := make([][][]int32, len(blocks))
	if len(blocks) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	var alive []*workerConn
	leasedOut := 0
	for _, wc := range c.conns {
		if wc.dead {
			continue
		}
		if wc.leased {
			leasedOut++ // a straggler of an earlier batch still owns it
			continue
		}
		wc.leased = true
		alive = append(alive, wc)
	}
	c.mu.Unlock()
	if len(alive) == 0 && leasedOut == 0 && !c.opts.AutoReconnect {
		return nil, errors.New("cluster: all workers are dead")
	}

	hedgeMax := 0
	if c.opts.Hedge {
		hedgeMax = c.opts.hedgeMax()
	}
	// A block occupies at most one primary/requeue slot plus its lifetime
	// hedge allowance, so the queue can never block a sender.
	tasks := make(chan attempt, len(blocks)*(1+hedgeMax))
	for i := range blocks {
		tasks <- attempt{block: i}
	}
	met := c.opts.Metrics
	met.Add(telemetry.QueueDepth, int64(len(blocks)))
	var (
		completed  int64
		aliveCount = int64(len(alive))
		done       = make(chan struct{})
		closeOnce  sync.Once
		errMu      sync.Mutex
		fatal      error
		lastDeath  error
		attempts   = make([]int, len(blocks))
		causes     = make([][]string, len(blocks))
		budget     = c.opts.retryBudget()
		drained    = make(chan struct{}, 1)
		fresh      = make(chan *workerConn, 16)
		claimed    = make([]atomic.Bool, len(blocks)) // first-wins dedup
		flights    = make([]flight, len(blocks))
		rtt        = telemetry.NewDurationHistogram() // this batch's round trips
	)
	fail := func(err error) {
		errMu.Lock()
		if fatal == nil {
			fatal = err
		}
		errMu.Unlock()
		closeOnce.Do(func() { close(done) })
	}
	finish := func() {
		if atomic.AddInt64(&completed, 1) == int64(len(blocks)) {
			closeOnce.Do(func() { close(done) })
		}
	}
	// requeue puts a failed block back on the queue unless its answer
	// already arrived from a hedged twin.
	requeue := func(i int, retry bool) {
		if claimed[i].Load() {
			return
		}
		if retry {
			met.Inc(telemetry.TaskRetries)
		}
		met.Inc(telemetry.QueueDepth)
		tasks <- attempt{block: i}
	}
	// chargeAttempt spends one of block i's retries on err and either
	// requeues the block or declares it poison. A poison verdict claims the
	// block first, so a hedged twin still in flight cannot also resolve it.
	chargeAttempt := func(wc *workerConn, i int, err error) {
		errMu.Lock()
		attempts[i]++
		causes[i] = append(causes[i], fmt.Sprintf("%s: %v", wc.addr, err))
		poisoned := budget >= 0 && attempts[i] >= budget
		n, cs := attempts[i], causes[i]
		lastDeath = err
		errMu.Unlock()
		if !poisoned {
			requeue(i, true)
			return
		}
		if !claimed[i].CompareAndSwap(false, true) {
			return // a twin already delivered the block
		}
		met.Inc(telemetry.PoisonTasks)
		if c.opts.SkipPoisonTasks {
			// Recorded skip: the block's slot stays nil and the batch
			// carries on; callers surface the verdicts.
			c.recordPoison(PoisonTaskError{Block: i, Attempts: n, Causes: cs})
			finish()
		} else {
			fail(&PoisonTaskError{Block: i, Attempts: n, Causes: cs})
		}
	}

	c.recruitMu.Lock()
	c.recruits[fresh] = struct{}{}
	c.recruitMu.Unlock()
	defer func() {
		c.recruitMu.Lock()
		delete(c.recruits, fresh)
		c.recruitMu.Unlock()
	}()

	// process runs one attempt on one connection and reports whether the
	// connection is still usable for further work.
	process := func(wc *workerConn, a attempt) bool {
		i := a.block
		fl := &flights[i]
		fl.mu.Lock()
		fl.inFlight++
		if fl.inFlight == 1 {
			fl.started = time.Now()
		}
		fl.mu.Unlock()
		met.Inc(telemetry.TasksInFlight)
		var id runlog.BlockID
		if ids != nil {
			id = ids[i]
		}
		if obs != nil {
			obs.BlockDispatched(id)
		}
		t0 := time.Now()
		cliques, err := c.roundTrip(ctx, wc, i, id, &blocks[i], combos[i])
		met.Add(telemetry.TasksInFlight, -1)
		fl.mu.Lock()
		fl.inFlight--
		fl.mu.Unlock()
		if err == nil {
			rttd := time.Since(t0)
			c.mu.Lock()
			wc.tasks++
			wc.busy += rttd
			c.mu.Unlock()
			c.health.success(wc.addr, rttd)
			rtt.Observe(int64(rttd))
			met.ObserveRoundTrip(rttd)
			if !claimed[i].CompareAndSwap(false, true) {
				// First-wins dedup: a twin already delivered this block.
				// Lemma 1 determinism means the discarded answer was
				// identical, so dropping it is exactly-once, not lossy.
				met.Inc(telemetry.HedgeWasted)
				return true
			}
			if a.hedge {
				met.Inc(telemetry.HedgeWins)
			}
			if obs != nil {
				// Durability before acknowledgement: the block only counts
				// as completed once its cliques are on disk.
				if oerr := obs.BlockDone(id, cliques); oerr != nil {
					fail(fmt.Errorf("cluster: checkpointing block result: %w", oerr))
					return true
				}
			}
			out[i] = cliques
			finish()
			return true
		}
		var appErr *applicationError
		if errors.As(err, &appErr) {
			if !claimed[i].Load() {
				fail(err) // deterministic; retrying is pointless
			}
			return true
		}
		var clean *cleanCancelError
		if errors.As(err, &clean) {
			// Cancelled before any bytes moved: the stream is still in
			// sync, keep the connection.
			fail(clean.err)
			requeue(i, false)
			return false
		}
		var corrupt *corruptResultError
		if errors.As(err, &corrupt) {
			// The reply arrived in sync but failed verification: the
			// connection stays, the worker's health score is charged, and
			// the block spends one retry.
			c.health.failure(wc.addr, true)
			chargeAttempt(wc, i, err)
			return true
		}
		// Transport failure: retire this worker and requeue the block
		// unless it has exhausted its retry budget.
		c.markDead(wc)
		c.health.failure(wc.addr, false)
		chargeAttempt(wc, i, err)
		if atomic.AddInt64(&aliveCount, -1) == 0 {
			select {
			case drained <- struct{}{}:
			default:
			}
		}
		return false
	}

	runner := func(wc *workerConn) {
		defer c.unlease(wc)
		for {
			// Health gate: a quarantined address waits out its cooldown
			// (the first dispatch after release is its re-admission probe),
			// and a flaky-but-serving one pays a one-shot penalty so
			// cleaner workers drain the queue first.
			for {
				wait, _, recheck := c.health.gate(wc.addr, time.Now())
				if wait <= 0 {
					break
				}
				t := time.NewTimer(wait)
				select {
				case <-done:
					t.Stop()
					return
				case <-t.C:
				}
				if !recheck {
					break
				}
			}
			select {
			case <-done:
				return
			case a := <-tasks:
				met.Add(telemetry.QueueDepth, -1)
				if claimed[a.block].Load() {
					continue // stale entry: the block already has its answer
				}
				// Memory guard: over budget, dispatch pauses here instead
				// of buffering more results toward an OOM kill. One runner
				// is always admitted, so the batch degrades to serial
				// execution, never deadlocks.
				c.guard.Enter(done)
				ok := process(wc, a)
				c.guard.Exit()
				if !ok {
					return
				}
			}
		}
	}

	allDead := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		if lastDeath != nil {
			return fmt.Errorf("cluster: all workers failed, last error: %w", lastDeath)
		}
		return errors.New("cluster: all workers are dead")
	}

	// adopt folds a revived or returned connection into the running batch.
	adopt := func(wc *workerConn) bool {
		if !c.lease(wc) {
			return false
		}
		atomic.AddInt64(&aliveCount, 1)
		go runner(wc)
		return true
	}

	// The recruiter folds revived connections into the running batch and
	// arbitrates the all-dead endgame.
	go func() {
		for {
			select {
			case <-done:
				return
			case wc := <-fresh:
				adopt(wc)
			case <-drained:
				if atomic.LoadInt64(&aliveCount) > 0 {
					continue // stale: capacity already returned
				}
				if !c.opts.AutoReconnect && c.leasedConns() == 0 {
					fail(allDead())
					return
				}
				// Capacity can still return: AutoReconnect may revive a
				// worker, or a straggler of an earlier batch may hand its
				// connection back. Wait out the grace window.
				grace := time.NewTimer(c.opts.AllDeadGrace)
				select {
				case <-done:
					grace.Stop()
					return
				case wc := <-fresh:
					grace.Stop()
					if !adopt(wc) && atomic.LoadInt64(&aliveCount) == 0 {
						select {
						case drained <- struct{}{}:
						default:
						}
					}
				case <-grace.C:
					if atomic.LoadInt64(&aliveCount) == 0 {
						fail(allDead())
						return
					}
				}
			}
		}
	}()
	if len(alive) == 0 {
		drained <- struct{}{} // wait out the grace period for revived capacity
	}

	// The hedge monitor watches for stragglers: once the level has enough
	// round trips to know what "normal" looks like, any block in flight
	// past the threshold gets a speculative twin queued for another worker
	// — but only while the queue is empty, because hedging an overloaded
	// cluster just doubles the overload.
	if hedgeMax > 0 {
		go func() {
			ticker := time.NewTicker(hedgeTick)
			defer ticker.Stop()
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
				}
				if len(tasks) > 0 {
					continue
				}
				th := c.hedgeThreshold(rtt)
				if th <= 0 {
					continue
				}
				now := time.Now()
				for i := range flights {
					if claimed[i].Load() {
						continue
					}
					fl := &flights[i]
					fl.mu.Lock()
					straggling := fl.inFlight > 0 && fl.hedges < hedgeMax &&
						now.Sub(fl.started) > th
					if straggling {
						fl.hedges++
					}
					fl.mu.Unlock()
					if !straggling {
						continue
					}
					met.Inc(telemetry.HedgedDispatches)
					met.Inc(telemetry.QueueDepth)
					tasks <- attempt{block: i, hedge: true}
				}
			}
		}()
	}

	// The watcher turns a context cancellation into expired deadlines on
	// every live connection, unblocking runners stuck in I/O.
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-stopWatch:
		case <-ctx.Done():
			fail(ctx.Err())
			c.mu.Lock()
			for _, wc := range c.conns {
				if !wc.dead && wc.conn != nil {
					wc.conn.SetDeadline(time.Now())
				}
			}
			c.mu.Unlock()
		}
	}()

	for _, wc := range alive {
		go runner(wc)
	}
	// The batch returns the moment every block has an answer — not when
	// every runner has: a straggling round trip keeps its connection leased
	// and rejoins the pool (through unlease → offer) whenever it resolves.
	<-done
	close(stopWatch)
	watchWG.Wait()
	// Entries stranded in the queue — by a fatal error, or hedge twins
	// obsoleted by their primary — are no longer pending work; return the
	// gauge to its pre-batch level.
	for {
		select {
		case <-tasks:
			met.Add(telemetry.QueueDepth, -1)
			continue
		default:
		}
		break
	}

	// Clear any cancellation deadlines left on surviving connections.
	// Leased connections are skipped: each belongs to a runner (possibly a
	// straggler of this very batch) that manages its own deadline and must
	// not have an in-flight envelope wiped from under it.
	c.mu.Lock()
	for _, wc := range c.conns {
		if !wc.dead && !wc.leased && wc.conn != nil {
			wc.conn.SetDeadline(time.Time{})
		}
	}
	c.mu.Unlock()

	errMu.Lock()
	defer errMu.Unlock()
	if fatal != nil {
		return nil, fatal
	}
	return out, nil
}

// taskDeadline resolves the round-trip envelope for one task.
func (c *Client) taskDeadline(t *blockTask) time.Duration {
	if c.opts.TaskTimeout < 0 {
		return 0
	}
	if c.opts.TaskTimeout > 0 {
		return c.opts.TaskTimeout
	}
	// Derived default: a generous per-block compute allowance that scales
	// with the block, so the envelope only catches genuinely hung
	// workers, never slow ones.
	d := 30*time.Second + time.Duration(int64(t.Nodes)+int64(len(t.Edges)))*time.Millisecond
	d += 2 * c.opts.Latency
	if c.opts.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(2*t.wireSize()) / float64(c.opts.BandwidthBytesPerSec) * float64(time.Second))
	}
	return d
}

// roundTrip sends one task and waits for its result, applying the simulated
// link costs and the task deadline. bid is the block's stable checkpoint
// identity (zero for non-checkpointed runs); the worker must echo it.
func (c *Client) roundTrip(ctx context.Context, wc *workerConn, id int, bid runlog.BlockID, b *decomp.Block, combo mcealg.Combo) ([][]int32, error) {
	t := taskFromBlock(id, bid.Level, bid.Plan, b, combo)
	if err := c.simulateLink(ctx, t.wireSize()); err != nil {
		return nil, &cleanCancelError{err: err}
	}
	if d := c.taskDeadline(&t); d > 0 {
		wc.conn.SetDeadline(time.Now().Add(d))
		defer wc.conn.SetDeadline(time.Time{})
	}
	met := c.opts.Metrics
	if err := wc.enc.Encode(&t); err != nil {
		return nil, fmt.Errorf("cluster: send to %s: %w", wc.addr, err)
	}
	met.Add(telemetry.BytesSent, t.wireSize())
	if wc.flush != nil {
		if err := wc.flush(); err != nil {
			return nil, fmt.Errorf("cluster: flush to %s: %w", wc.addr, err)
		}
	}
	var res blockResult
	if err := wc.dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("cluster: receive from %s: %w", wc.addr, err)
	}
	met.Add(telemetry.BytesReceived, res.wireSize())
	if res.ID != id || res.Level != bid.Level || res.Plan != bid.Plan {
		return nil, fmt.Errorf("cluster: worker %s answered task %d (block L%d/B%d), want %d (L%d/B%d)",
			wc.addr, res.ID, res.Level, res.Plan, id, bid.Level, bid.Plan)
	}
	if res.Corrupt {
		met.Inc(telemetry.CorruptResults)
		return nil, &corruptResultError{msg: fmt.Sprintf("cluster: task %d corrupted in flight to %s", id, wc.addr)}
	}
	if res.Sum != res.payloadSum() {
		met.Inc(telemetry.CorruptResults)
		return nil, &corruptResultError{msg: fmt.Sprintf("cluster: result %d from %s corrupted in flight (checksum mismatch)", id, wc.addr)}
	}
	if res.Err != "" {
		return nil, &applicationError{msg: fmt.Sprintf("cluster: worker %s: %s", wc.addr, res.Err)}
	}
	if err := c.simulateLink(ctx, res.wireSize()); err != nil {
		return nil, &cleanCancelError{err: err}
	}
	return res.Cliques, nil
}

// simulateLink sleeps for the configured latency plus the transfer time of
// size bytes at the configured bandwidth, waking early on cancellation.
func (c *Client) simulateLink(ctx context.Context, size int64) error {
	d := c.opts.Latency
	if c.opts.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(size) / float64(c.opts.BandwidthBytesPerSec) * float64(time.Second))
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
