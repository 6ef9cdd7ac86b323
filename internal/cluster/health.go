package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mce/internal/telemetry"
)

// Health scoring tunables. The EWMA weight favours recent behaviour (a
// recovered worker sheds its bad history in a few round trips); the
// quarantine thresholds are deliberately lazy — transport failures already
// retire connections, so quarantine exists to stop the retire→redial→fail
// flap of a sick-but-reachable worker, not to react to one bad task.
const (
	healthAlpha = 0.3 // EWMA weight of the newest observation

	// A worker is quarantined when it is failing consecutively or its
	// error EWMA says most recent tasks failed — unless it is the last
	// non-quarantined worker, which always keeps serving (liveness).
	quarantineConsecFails = 3
	quarantineErrScore    = 0.7

	// Quarantine cooldown: first entry waits the base, every failed probe
	// doubles it up to the cap.
	quarantineBaseCooldown = 250 * time.Millisecond
	quarantineMaxCooldown  = 5 * time.Second

	// Dispatch weighting: a healthy-but-flaky worker (error EWMA above the
	// threshold) pays a pre-dispatch penalty proportional to its error
	// score, so cleaner workers drain the queue first.
	penaltyErrThreshold = 0.2
	penaltyUnit         = 250 * time.Millisecond
	penaltyMax          = time.Second

	// probeHold is how long sibling connections of an address stand back
	// while one connection's probe is in flight.
	probeHold = 25 * time.Millisecond
)

// workerState is the quarantine state machine: healthy ⇄ quarantined →
// probing → (healthy | quarantined with doubled cooldown).
type workerState int32

const (
	stateHealthy workerState = iota
	stateQuarantined
	stateProbing
)

func (s workerState) String() string {
	switch s {
	case stateQuarantined:
		return "quarantined"
	case stateProbing:
		return "probing"
	default:
		return "healthy"
	}
}

// workerHealth is one address's score card. All fields are guarded by the
// owning registry's mutex — health updates are one tiny critical section
// per round trip, far off the hot path.
type workerHealth struct {
	addr        string
	latEWMA     float64 // round-trip EWMA, nanoseconds; 0 until first success
	errEWMA     float64 // failure-rate EWMA in [0,1]
	corrupt     int64   // corrupt verdicts (either direction) on this address
	consecFails int
	state       workerState
	until       time.Time     // quarantine release time
	cooldown    time.Duration // current quarantine cooldown
	quarantines int64
	probes      int64
}

// healthRegistry scores every worker address a client talks to. It is
// shared by all connections (and reconnections) to an address, so a
// flapping worker keeps its record across retire/redial cycles.
type healthRegistry struct {
	met *telemetry.Engine

	mu     sync.Mutex
	byAddr map[string]*workerHealth
}

func newHealthRegistry(met *telemetry.Engine) *healthRegistry {
	return &healthRegistry{met: met, byAddr: make(map[string]*workerHealth)}
}

// touch pre-registers an address so health reports list every dialled
// worker, including ones that never completed a task.
func (r *healthRegistry) touch(addr string) {
	r.mu.Lock()
	r.get(addr)
	r.mu.Unlock()
}

// get returns the (created on demand) score card for addr. Callers hold
// r.mu.
func (r *healthRegistry) get(addr string) *workerHealth {
	h, ok := r.byAddr[addr]
	if !ok {
		h = &workerHealth{addr: addr}
		r.byAddr[addr] = h
	}
	return h
}

// healthyOthers counts non-quarantined addresses other than addr. Callers
// hold r.mu. (Map iteration order is irrelevant: the result is a count.)
func (r *healthRegistry) healthyOthers(addr string) int {
	n := 0
	for a, h := range r.byAddr {
		if a != addr && h.state != stateQuarantined {
			n++
		}
	}
	return n
}

// success records one completed round trip and re-admits a probing worker.
func (r *healthRegistry) success(addr string, rtt time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.get(addr)
	h.consecFails = 0
	if h.latEWMA == 0 {
		h.latEWMA = float64(rtt)
	} else {
		h.latEWMA = healthAlpha*float64(rtt) + (1-healthAlpha)*h.latEWMA
	}
	h.errEWMA *= 1 - healthAlpha
	if h.state != stateHealthy {
		// A successful probe (or a success racing the quarantine decision)
		// re-admits the worker and forgives the cooldown escalation.
		h.state = stateHealthy
		h.cooldown = 0
	}
}

// failure records one failed round trip (corrupt marks an in-sync corrupt
// verdict rather than a transport death) and drives the quarantine state
// machine.
func (r *healthRegistry) failure(addr string, corrupt bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.get(addr)
	h.consecFails++
	h.errEWMA = healthAlpha + (1-healthAlpha)*h.errEWMA
	if corrupt {
		h.corrupt++
	}
	switch h.state {
	case stateProbing:
		// Failed probe: back to quarantine with a doubled cooldown.
		if r.healthyOthers(addr) > 0 {
			r.quarantineLocked(h)
		} else {
			h.state = stateHealthy // last worker standing keeps serving
		}
	case stateHealthy:
		if (h.consecFails >= quarantineConsecFails || h.errEWMA >= quarantineErrScore) &&
			r.healthyOthers(addr) > 0 {
			r.quarantineLocked(h)
		}
	}
}

// quarantineLocked moves h into quarantine, escalating its cooldown.
// Callers hold r.mu.
func (r *healthRegistry) quarantineLocked(h *workerHealth) {
	if h.cooldown == 0 {
		h.cooldown = quarantineBaseCooldown
	} else {
		h.cooldown *= 2
		if h.cooldown > quarantineMaxCooldown {
			h.cooldown = quarantineMaxCooldown
		}
	}
	h.state = stateQuarantined
	h.until = time.Now().Add(h.cooldown)
	h.quarantines++
	r.met.Inc(telemetry.WorkersQuarantined)
}

// gate is the dispatch-side admission check for one connection to addr. It
// returns how long the caller should wait before pulling work (0 = go
// now), whether this dispatch is a re-admission probe, and whether the
// caller must consult the gate again after waiting. Quarantine and
// probe-hold waits recheck (the state can change while waiting); the
// flaky-worker penalty does not — it is a one-shot delay before
// dispatching, and only dispatching can earn the successes that decay the
// error score, so a recheck there would spin forever. The caller reports a
// probe's outcome through success/failure like any other task.
func (r *healthRegistry) gate(addr string, now time.Time) (wait time.Duration, probe, recheck bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.get(addr)
	switch h.state {
	case stateQuarantined:
		if now.Before(h.until) {
			return h.until.Sub(now), false, true
		}
		h.state = stateProbing
		h.probes++
		r.met.Inc(telemetry.WorkerProbes)
		return 0, true, false
	case stateProbing:
		// A sibling connection's probe is in flight; stand back briefly.
		return probeHold, false, true
	default:
		if h.errEWMA > penaltyErrThreshold {
			p := time.Duration(h.errEWMA * float64(penaltyUnit) / penaltyErrThreshold)
			if p > penaltyMax {
				p = penaltyMax
			}
			return p, false, false
		}
		return 0, false, false
	}
}

// WorkerHealthInfo is one address's row in a HealthReport.
type WorkerHealthInfo struct {
	Addr string
	// State is "healthy", "quarantined" or "probing".
	State string
	// Score is 1−errEWMA: 1.0 for a clean worker, toward 0 as recent tasks
	// fail.
	Score float64
	// LatencyEWMA is the smoothed round-trip time of recent tasks.
	LatencyEWMA time.Duration
	// CorruptResults counts corrupt verdicts attributed to this address.
	CorruptResults int64
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// Quarantines counts how many times the address entered quarantine.
	Quarantines int64
	// Probes counts re-admission probes dispatched to the address.
	Probes int64
}

// HealthReport is a DialReport-style summary of per-worker health: which
// workers the run leaned on, which it had to bench, and why. Rows are
// ordered by address.
type HealthReport struct {
	Workers []WorkerHealthInfo
}

// Degraded reports whether any worker is currently benched (quarantined or
// still proving itself) or has ever been quarantined.
func (r HealthReport) Degraded() bool {
	for _, w := range r.Workers {
		if w.State != stateHealthy.String() || w.Quarantines > 0 {
			return true
		}
	}
	return false
}

// String renders the one-line-per-worker summary mcefind prints.
func (r HealthReport) String() string {
	if len(r.Workers) == 0 {
		return "no workers"
	}
	var b strings.Builder
	for i, w := range r.Workers {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s: %s score=%.2f rtt~%s corrupt=%d quarantines=%d probes=%d",
			w.Addr, w.State, w.Score, w.LatencyEWMA.Round(time.Millisecond),
			w.CorruptResults, w.Quarantines, w.Probes)
	}
	return b.String()
}

// report snapshots the registry, ordered by address.
func (r *healthRegistry) report() HealthReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	addrs := make([]string, 0, len(r.byAddr))
	for a := range r.byAddr {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	rep := HealthReport{Workers: make([]WorkerHealthInfo, 0, len(addrs))}
	for _, a := range addrs {
		h := r.byAddr[a]
		rep.Workers = append(rep.Workers, WorkerHealthInfo{
			Addr:                a,
			State:               h.state.String(),
			Score:               1 - h.errEWMA,
			LatencyEWMA:         time.Duration(h.latEWMA),
			CorruptResults:      h.corrupt,
			ConsecutiveFailures: h.consecFails,
			Quarantines:         h.quarantines,
			Probes:              h.probes,
		})
	}
	return rep
}
