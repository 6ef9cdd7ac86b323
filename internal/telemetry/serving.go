package telemetry

// Per-endpoint serving statistics for the query daemon (cmd/mced). The
// design mirrors the per-combo cells: a fixed array of atomic slots indexed
// by a small integer the caller owns, with the display label learned lazily
// on first use, so the update path is two atomic adds and the package never
// imports the server.

import (
	"sync/atomic"
	"time"
)

// NumEndpoints is the number of per-endpoint statistic slots the engine
// tracks. The daemon assigns one index per HTTP endpoint; slots it never
// touches stay zero and are omitted from the snapshot.
const NumEndpoints = 8

// endpointCell is one slot of the per-endpoint request/latency distribution.
type endpointCell struct {
	label    atomic.Pointer[string]
	requests atomic.Int64 // requests that reached the handler (admitted)
	errors   atomic.Int64 // responses with a 5xx status
	ns       atomic.Int64 // total handler time, nanoseconds
}

// EndpointObserved records one completed request on endpoint slot i: the
// per-endpoint request count, error count (status ≥ 500) and total time,
// plus the global query latency histogram. label is the display name
// ("cliques-of"); it is stored on first use.
//
//mce:hotpath per-request serving accounting
func (e *Engine) EndpointObserved(i int, label string, d time.Duration, status int) {
	if e == nil {
		return
	}
	e.queryNs.Observe(int64(d))
	if i < 0 || i >= NumEndpoints {
		return
	}
	c := &e.endpoints[i]
	if c.label.Load() == nil {
		l := label
		c.label.Store(&l)
	}
	c.requests.Add(1)
	if status >= 500 {
		c.errors.Add(1)
	}
	c.ns.Add(int64(d))
}

// EndpointStat is one row of the per-endpoint distribution in a Snapshot.
type EndpointStat struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	TotalNs  int64  `json:"total_ns"`
}
