package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mce/internal/cliqdb"
	"mce/internal/community"
	"mce/internal/telemetry"
)

const (
	nominalQPS = 1000.0
	// The ladder bisects the rate in log space between these bounds until
	// the bracket is within 5%: 16^(1/2^6) ≈ 1.044 after 6 probes.
	ladderMin    = 500.0
	ladderMax    = 8000.0
	ladderProbes = 6
	// p99Limit is the serving latency limit: a rate is sustainable when
	// p99 from the due time stays under it with no growing backlog.
	p99Limit = 25 * time.Millisecond
	// window is the span of one steady p99: 1000 samples at the nominal
	// rate, ten beyond the p99. The run reports the median of its
	// windows' p99s, so one rare stall moves one window, not the metric.
	window = time.Second
	// probeWindow is the same ten-beyond window, in samples, inside a
	// ladder probe.
	probeWindow = 1000
	// abortLate ends a probe whose generator fell a second behind: the
	// backlog is growing, the verdict is already fail.
	abortLate = time.Second
	// rebuildEvery paces POST /v1/rebuild in the churn phase.
	rebuildEvery = 2 * time.Second
	// checkEvery spot-checks one response in this many against the
	// in-process index.
	checkEvery = 16
	// maxResults is mced's default -max-results truncation.
	maxResults = 1000
)

// daemon is a running mced process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // API host:port
	debug  string // /debug/vars host:port
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed

	mu  sync.Mutex
	log []string // stdout lines
}

// startDaemon starts mced on loopback ports the kernel picks and returns
// once /readyz answers ok.
func startDaemon(bin, db, seg string) (*daemon, error) {
	cmd := exec.Command(bin, "-db", db, "-segments", seg,
		"-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// Should the benchmark die, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mced: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	// The two address lines are the only sends; the buffer holds both so
	// the reader never blocks on a caller that gave up.
	addrs := make(chan string, 2)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if i := strings.Index(line, "http://"); i >= 0 && len(d.log) <= 2 {
				addrs <- strings.SplitN(line[i+len("http://"):], "/", 2)[0]
			}
		}
		d.err = cmd.Wait()
		close(d.exited)
	}()
	timeout := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case a := <-addrs:
			if i == 0 {
				d.addr = a
			} else {
				d.debug = a
			}
		case <-d.exited:
			return nil, fmt.Errorf("mced exited during start-up: %v", d.err)
		case <-timeout:
			d.kill()
			return nil, errors.New("mced did not report its addresses")
		}
	}
	for {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
				return d, nil
			}
		}
		select {
		case <-timeout:
			d.kill()
			return nil, errors.New("mced never became ready")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and checks the drain: the process must exit 0 after
// printing its drain message.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("mced did not exit within 15s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("mced drain: %v", d.err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !slices.Contains(d.log, "mced: drained, bye") {
		return errors.New("mced exited without completing its drain")
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.exited
}

// vars fetches mced's telemetry snapshot.
func (d *daemon) vars() (telemetry.Snapshot, error) {
	var doc struct {
		Telemetry telemetry.Snapshot `json:"telemetry"`
	}
	resp, err := http.Get("http://" + d.debug + "/debug/vars")
	if err != nil {
		return doc.Telemetry, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Telemetry, err
}

// sample is one request of an open-loop phase, timed from when it was due.
type sample struct {
	late time.Duration // sent − due: how late the generator was
	lat  time.Duration // done − due: what a user waiting since due saw
	ok   bool
}

// openLoop issues n requests, request i due at i/rate after the start, from
// conns workers that each keep one connection busy. Workers take requests
// in due order, so when the system falls behind, requests queue in the
// generator and the wait counts against them. do performs request i and
// reports success. When abortLate > 0, workers stop taking requests once
// one is sent more than abortLate late (the phase has already failed);
// requests never sent are left out of the result.
func openLoop(n int, rate float64, conns int, abortLate time.Duration, do func(i int) bool) []sample {
	samples := make([]sample, n)
	sent := make([]bool, n)
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				t := time.Now()
				late := t.Sub(due)
				if abortLate > 0 && late > abortLate {
					aborted.Store(true)
					return
				}
				ok := do(i)
				samples[i] = sample{late: late, lat: time.Since(due), ok: ok}
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	out := samples[:0]
	for i, s := range samples {
		if sent[i] {
			out = append(out, s)
		}
	}
	return out
}

// summary is a phase's client-side latency distribution, in ms from due.
type summary struct {
	n       int
	p50     float64   // over the whole phase
	p99     float64   // median of the windows' p99s
	p99s    []float64 // each window's p99
	beyond  int       // fewest samples beyond a window's p99
	lateP99 float64
	lastP50 float64 // median of the last window
	failed  int
}

// summarize splits a phase into windows of per samples each (a short tail
// joins the last window) and summarises it.
func summarize(ss []sample, per int) summary {
	lat := make([]float64, len(ss))
	late := make([]float64, len(ss))
	s := summary{n: len(ss)}
	for i, x := range ss {
		lat[i] = ms(x.lat)
		late[i] = ms(x.late)
		if !x.ok {
			s.failed++
		}
	}
	s.p50, _ = quantile(lat, 0.50)
	s.lateP99, _ = quantile(late, 0.99)
	for lo := 0; lo < len(lat); lo += per {
		hi := lo + per
		if len(lat)-hi < per {
			hi = len(lat)
		}
		p, beyond := quantile(lat[lo:hi], 0.99)
		s.p99s = append(s.p99s, p)
		s.lastP50, _ = quantile(lat[lo:hi], 0.50)
		if len(s.p99s) == 1 || beyond < s.beyond {
			s.beyond = beyond
		}
		if hi == len(lat) {
			break
		}
	}
	s.p99 = median(s.p99s)
	return s
}

// perWindow is how many samples a window holds at rate.
func perWindow(rate float64, w time.Duration) int {
	return max(1, int(rate*w.Seconds()))
}

// oracle answers the queries in-process from the same index file, for the
// spot checks.
type oracle struct {
	db    *cliqdb.DB
	comms map[int]int // k → expected response total
}

func newOracle(dbPath string, communities bool) (*oracle, error) {
	db, err := cliqdb.Open(dbPath)
	if err != nil {
		return nil, err
	}
	o := &oracle{db: db, comms: map[int]int{}}
	if communities {
		for _, k := range []int{4, 5} {
			cs, err := community.Detect(db.Cliques(), k)
			if err != nil {
				return nil, err
			}
			o.comms[k] = min(len(cs), maxResults)
		}
	}
	return o, nil
}

// ids returns the clique IDs the index holds for q.
func (o *oracle) ids(q query) []uint32 {
	switch q.kind {
	case qCliquesOf:
		return o.db.AppendCliquesOf(nil, q.a)
	case qCommon:
		return o.db.AppendCommonCliques(nil, q.a, q.b)
	default:
		return o.db.AppendTopK(nil, int(q.a))
	}
}

type apiResponse struct {
	Total   int `json:"total"`
	Cliques []struct {
		ID      uint32  `json:"id"`
		Members []int32 `json:"members"`
	} `json:"cliques"`
}

// check compares a 200 response body with the in-process answer.
func (o *oracle) check(q query, body []byte) error {
	var r apiResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: %v", q.path(), err)
	}
	if q.kind == qCommunities {
		if r.Total != o.comms[int(q.a)] {
			return fmt.Errorf("%s: %d communities, want %d", q.path(), r.Total, o.comms[int(q.a)])
		}
		return nil
	}
	ids := o.ids(q)
	if r.Total != len(ids) || len(r.Cliques) != min(len(ids), maxResults) {
		return fmt.Errorf("%s: total %d with %d listed, want %d", q.path(), r.Total, len(r.Cliques), len(ids))
	}
	for j, c := range r.Cliques {
		if c.ID != ids[j] || !slices.Equal(c.Members, o.db.AppendClique(nil, ids[j])) {
			return fmt.Errorf("%s: clique %d differs from the index", q.path(), j)
		}
	}
	return nil
}

// served drives one daemon with the workload's query stream.
type served struct {
	b      *bench
	d      *daemon
	in     *inputs
	or     *oracle
	client *http.Client
	conns  int
	cursor int // next unused query
	tr     *tracer
}

func newServed(b *bench, d *daemon, in *inputs, or *oracle, conns int, tr *tracer) *served {
	return &served{b: b, d: d, in: in, or: or, conns: conns, tr: tr, client: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// phase runs an open-loop phase at rate for dur. Every request is an
// operation; a non-200, a transport error or a wrong spot-checked answer
// fails it.
func (s *served) phase(name string, rate float64, dur time.Duration, abortLate time.Duration) []sample {
	n := int(rate * dur.Seconds())
	base := s.cursor
	// The generator shares the process with the enumeration rounds; collect
	// their garbage now rather than in the middle of the phase.
	runtime.GC()
	s.cursor += n
	qs := s.in.queries
	root := s.tr.begin("serve."+name, -1, 0)
	out := openLoop(n, rate, s.conns, abortLate, func(i int) bool {
		q := qs[(base+i)%len(qs)]
		sp := s.tr.begin("serve."+kindNames[q.kind], root, int64(base+i))
		err := s.request(q, (base+i)%checkEvery == 0)
		s.tr.end(sp)
		return s.b.op(err)
	})
	s.tr.end(root)
	return out
}

// bodies recycles response buffers: reading a response allocates nothing,
// which keeps the generator's garbage collector out of the timings.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *served) request(q query, check bool) error {
	resp, err := s.client.Get("http://" + s.d.addr + q.path())
	if err != nil {
		return err
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", q.path(), resp.StatusCode)
	}
	if check {
		if err := s.or.check(q, buf.Bytes()); err != nil {
			s.b.wrong("spot check: %v", err)
			return err
		}
	}
	return nil
}

// rebuild POSTs /v1/rebuild and checks the recompiled index is the same.
func (s *served) rebuild() (time.Duration, error) {
	t0 := time.Now()
	resp, err := s.client.Post("http://"+s.d.addr+"/v1/rebuild", "", nil)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("rebuild: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var st struct {
		Cliques int `json:"cliques"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.Cliques != s.or.db.NumCliques() {
		s.b.wrong("rebuild compiled %d cliques, want %d", st.Cliques, s.or.db.NumCliques())
		return d, errors.New("rebuild changed the index")
	}
	return d, nil
}

// churn runs the nominal rate for dur with a rebuild every rebuildEvery,
// the first an eighth of a period in.
func (s *served) churn(dur time.Duration) ([]sample, []time.Duration) {
	var rebuilds []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		t0 := time.Now()
		for k := 0; ; k++ {
			at := t0.Add(rebuildEvery/8 + time.Duration(k)*rebuildEvery)
			if at.Sub(t0) >= dur {
				return
			}
			time.Sleep(time.Until(at))
			sp := s.tr.begin("serve.rebuild", -1, int64(k))
			d, err := s.rebuild()
			s.tr.end(sp)
			if s.b.op(err) {
				rebuilds = append(rebuilds, d)
			}
		}
	}()
	ss := s.phase("churn", nominalQPS, dur, 0)
	<-done
	return ss, rebuilds
}

// ladder bisects, in log space between ladderMin and ladderMax, for the
// highest rate a probe sustains: every request sent and answered, a p99
// from due within p99Limit, and no growing backlog — the last window's
// median latency within p99Limit too. A probe's p99 is the median over
// windows of probeWindow samples, so one stall moves one window, not the
// verdict.
type ladder struct {
	lo, hi float64
	probes int
}

func newLadder() *ladder { return &ladder{lo: ladderMin, hi: ladderMax} }

// step probes the bracket's midpoint and narrows the bracket. A failed
// probe is run once more before the rate counts as too high: on a shared
// host a burst of contention can fail one probe at a rate the system
// sustains, and an early wrong verdict would move every later probe.
func (l *ladder) step(s *served, dur time.Duration) {
	rate := math.Sqrt(l.lo * l.hi)
	pass := false
	for try := 0; try < 2 && !pass; try++ {
		ss := s.phase("ladder", rate, dur, abortLate)
		sum := summarize(ss, probeWindow)
		want := int(rate * dur.Seconds())
		pass = len(ss) == want && sum.failed == 0 && sum.p99 <= ms(p99Limit) && sum.lastP50 <= ms(p99Limit)
		fmt.Fprintf(os.Stderr, "perfbench: ladder %.0f qps: %d/%d sent, p99 %.2f ms (windows %.1f), pass=%v\n",
			rate, len(ss), want, sum.p99, sum.p99s, pass)
	}
	if pass {
		l.lo = rate
	} else {
		l.hi = rate
	}
	l.probes++
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
