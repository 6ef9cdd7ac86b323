// Package resguard enforces a coordinator-side memory budget with
// backpressure instead of OOM death. A Guard watches the Go heap against a
// configured byte budget and pauses workers that are about to take on more
// buffered work while the heap is over the watermark — dispatch slows down,
// results drain, the heap recedes, work resumes.
//
// The guard is deliberately conservative about liveness: the sole active
// holder always proceeds, so progress is guaranteed even when a single
// block's result is larger than the whole budget — the run degrades to
// serial execution rather than deadlocking. Heap readings come from
// runtime.ReadMemStats, cached for a short interval so the hot dispatch
// path almost never pays for a stats collection.
package resguard

import (
	"runtime"
	"sync/atomic"
	"time"

	"mce/internal/telemetry"
)

// pollInterval is how long one heap reading stays fresh; it bounds both the
// ReadMemStats rate and the wake-up latency of paused workers.
const pollInterval = 25 * time.Millisecond

// releaseFraction is the hysteresis watermark: paused workers resume once
// the heap drops below budget×releaseFraction, so the guard does not
// flap around the exact budget line.
const releaseFraction = 0.9

// Guard is a memory-budget admission gate shared by the workers of one
// executor (cluster dispatch runners or the local pool). A nil *Guard
// disables all checks at zero cost.
type Guard struct {
	budget  int64
	release int64
	met     *telemetry.Engine

	running atomic.Int64 // admitted holders between Enter and Exit

	lastRead atomic.Int64 // unix nanos of the cached heap reading
	lastHeap atomic.Int64 // cached HeapAlloc bytes
}

// New builds a guard for the given budget in bytes. A budget ≤ 0 means
// "unlimited" and returns nil, which every method accepts.
//
//mce:coldpath allocating constructor, once per batch
func New(budget int64, met *telemetry.Engine) *Guard {
	if budget <= 0 {
		return nil
	}
	return &Guard{
		budget:  budget,
		release: int64(float64(budget) * releaseFraction),
		met:     met,
	}
}

// heap returns the current HeapAlloc estimate, refreshing the cached
// reading when it is older than pollInterval.
func (g *Guard) heap() int64 {
	now := time.Now().UnixNano()
	last := g.lastRead.Load()
	if last != 0 && now-last < int64(pollInterval) {
		return g.lastHeap.Load()
	}
	// One winner refreshes; racing losers use the (still fresh enough)
	// previous reading rather than piling onto ReadMemStats.
	if !g.lastRead.CompareAndSwap(last, now) {
		return g.lastHeap.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.lastHeap.Store(int64(ms.HeapAlloc))
	return int64(ms.HeapAlloc)
}

// Enter admits one unit of work, blocking while the heap is over budget.
// Admission when no other holder is running never blocks — a CAS from zero
// running holders always wins — so the run can degrade to serial execution
// but never deadlock on its own budget, even when a single block outweighs
// the whole budget. done aborts the wait early (batch failure or
// cancellation); Enter still counts as admitted then, so every Enter must
// be paired with exactly one Exit.
func (g *Guard) Enter(done <-chan struct{}) {
	if g == nil {
		return
	}
	if g.running.CompareAndSwap(0, 1) {
		return // sole runner: guaranteed progress
	}
	if g.heap() < g.budget {
		g.running.Add(1)
		return
	}
	// Over budget with other work in flight: pause until the heap drains
	// below the release watermark, the other holders finish, or the batch
	// is done with us.
	g.met.Inc(telemetry.BackpressurePauses)
	t0 := time.Now()
	defer func() { g.met.Add(telemetry.BackpressureNs, int64(time.Since(t0))) }()
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			g.running.Add(1)
			return
		case <-ticker.C:
		}
		if g.running.CompareAndSwap(0, 1) {
			return // everyone else finished; we are the liveness holder now
		}
		if g.heap() < g.release {
			g.running.Add(1)
			return
		}
	}
}

// OverBudget reports whether the heap currently exceeds the budget. It is
// advisory — a cheap cached read with no admission side effects — and is
// wired as the intra-block enumerator's split gate: while the heap is over
// budget, workers stop materialising new stealable subproblems and recurse
// in place instead, so deque growth counts against the same budget that
// paces block dispatch. A nil guard is never over budget.
func (g *Guard) OverBudget() bool {
	if g == nil {
		return false
	}
	return g.heap() >= g.budget
}

// Exit releases one unit of work admitted by Enter.
func (g *Guard) Exit() {
	if g == nil {
		return
	}
	g.running.Add(-1)
}
