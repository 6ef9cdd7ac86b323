package cluster

import (
	"compress/flate"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mce/internal/decomp"
	"mce/internal/telemetry"
)

// Worker processes block-analysis tasks for coordinators. The zero value is
// ready to serve; MaxConns and DrainTimeout, if used, must be set before
// Serve.
type Worker struct {
	// MaxConns caps how many coordinator connections are served
	// concurrently. When the cap is reached further connections wait in
	// the listener's accept queue, so one worker process cannot be driven
	// into memory exhaustion by an over-eager coordinator. 0 means
	// unlimited.
	MaxConns int
	// DrainTimeout bounds how long Close waits for in-flight tasks to
	// finish and ship their results before force-closing the remaining
	// connections. 0 means 5s.
	DrainTimeout time.Duration
	// Metrics, when non-nil, receives worker-side telemetry: tasks served,
	// errors, panics, bytes on the wire, per-combo block timings and the
	// MCE recursion counters. Nil disables all instrumentation. Must be set
	// before Serve.
	Metrics *telemetry.Engine

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	closedCh chan struct{}
	conns    map[net.Conn]struct{}
	inflight int
	drained  chan struct{}
}

// initLocked lazily creates the zero value's channels and maps. Callers
// hold w.mu.
func (w *Worker) initLocked() {
	if w.closedCh == nil {
		w.closedCh = make(chan struct{})
	}
	if w.conns == nil {
		w.conns = make(map[net.Conn]struct{})
	}
}

// Serve accepts coordinator connections on ln until Close is called or the
// listener fails. Each connection is served on its own goroutine, so one
// worker process can serve several coordinators (the paper's time-shared
// cluster).
//
//lint:ignore ctxplumb Serve follows the net/http.Server.Serve idiom: its lifetime is owned by Close, which also tears down the listener — a ctx variant would duplicate that teardown path
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	w.initLocked()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return errors.New("cluster: worker already closed")
	}
	w.ln = ln
	closedCh := w.closedCh
	w.mu.Unlock()

	var sem chan struct{}
	if w.MaxConns > 0 {
		sem = make(chan struct{}, w.MaxConns)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if w.isClosed() {
				return nil
			}
			return fmt.Errorf("cluster: accept: %w", err)
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-closedCh:
				conn.Close()
				return nil
			}
		}
		if !w.track(conn) {
			conn.Close()
			if sem != nil {
				<-sem
			}
			return nil
		}
		go func() {
			defer func() {
				w.untrack(conn)
				conn.Close()
				if sem != nil {
					<-sem
				}
			}()
			_ = w.serveConn(conn)
		}()
	}
}

// Close stops the accept loop, waits up to DrainTimeout for in-flight
// tasks to finish and ship their results, then closes every remaining
// connection (whose coordinators requeue their blocks elsewhere). It is
// idempotent: a second Close returns immediately.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.initLocked()
	w.closed = true
	close(w.closedCh)
	var err error
	if w.ln != nil {
		err = w.ln.Close()
	}
	var drained chan struct{}
	if w.inflight > 0 {
		drained = make(chan struct{})
		w.drained = drained
	}
	w.mu.Unlock()

	if drained != nil {
		dt := w.DrainTimeout
		if dt <= 0 {
			dt = 5 * time.Second
		}
		t := time.NewTimer(dt)
		select {
		case <-drained:
		case <-t.C: // a task is stuck (hung link, runaway block): give up
		}
		t.Stop()
	}
	w.mu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	return err
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

func (w *Worker) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// beginTask registers one in-flight task; it refuses when the worker is
// draining so serving loops stop picking up new work.
func (w *Worker) beginTask() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.inflight++
	return true
}

func (w *Worker) endTask() {
	w.mu.Lock()
	w.inflight--
	if w.closed && w.inflight == 0 && w.drained != nil {
		close(w.drained)
		w.drained = nil
	}
	w.mu.Unlock()
}

// ServeConn answers one coordinator connection: a handshake followed by a
// stream of blockTask messages, each answered with a blockResult. It
// returns nil when the coordinator hangs up.
func ServeConn(conn net.Conn) error {
	w := &Worker{}
	w.mu.Lock()
	w.initLocked()
	w.mu.Unlock()
	return w.serveConn(conn)
}

func (w *Worker) serveConn(conn net.Conn) error {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	var h hello
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}
	if err := enc.Encode(helloAck{Version: protocolVersion, Compress: h.Compress}); err != nil {
		return fmt.Errorf("cluster: handshake ack: %w", err)
	}
	if h.Version != protocolVersion {
		return fmt.Errorf("cluster: coordinator speaks version %d, worker %d", h.Version, protocolVersion)
	}
	var flush func() error
	if h.Compress {
		// The handshake stays plain; everything after it is DEFLATE both
		// ways.
		fr := flate.NewReader(conn)
		fw, err := flate.NewWriter(conn, flate.BestSpeed)
		if err != nil {
			return fmt.Errorf("cluster: compression: %w", err)
		}
		defer fw.Close()
		dec = gob.NewDecoder(fr)
		enc = gob.NewEncoder(fw)
		flush = fw.Flush
	}

	met := w.Metrics
	for {
		var t blockTask
		if err := dec.Decode(&t); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("cluster: decode task: %w", err)
		}
		// Draining: drop the task without an answer — closing the
		// connection makes the coordinator requeue it elsewhere.
		if !w.beginTask() {
			return nil
		}
		met.Add(telemetry.BytesReceived, t.wireSize())
		met.Inc(telemetry.TasksInFlight)
		res := runTask(&t, met)
		met.Add(telemetry.TasksInFlight, -1)
		res.Sum = res.payloadSum()
		err := enc.Encode(&res)
		if err == nil && flush != nil {
			err = flush()
		}
		if err == nil {
			met.Add(telemetry.BytesSent, res.wireSize())
		}
		w.endTask()
		if err != nil {
			return fmt.Errorf("cluster: encode result: %w", err)
		}
	}
}

// runTask executes BLOCK-ANALYSIS for one task, capturing errors in-band.
// A panicking block (malformed task, algorithm bug) is converted into an
// in-band error instead of killing the worker process, so one poison task
// cannot take down a node that other coordinators share. met may be nil.
func runTask(t *blockTask, met *telemetry.Engine) (res blockResult) {
	res = blockResult{ID: t.ID, Level: t.Level, Plan: t.Plan}
	met.Inc(telemetry.TasksServed)
	defer func() {
		if r := recover(); r != nil {
			res = blockResult{ID: t.ID, Level: t.Level, Plan: t.Plan, Err: fmt.Sprintf("panic in BLOCK-ANALYSIS: %v", r)}
			met.Inc(telemetry.TaskPanics)
		}
		if res.Err != "" || res.Corrupt {
			met.Inc(telemetry.TaskErrors)
		}
	}()
	if t.Sum != t.payloadSum() {
		res.Corrupt = true
		met.Inc(telemetry.CorruptResults)
		return res
	}
	b, combo, err := blockFromTask(t)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	ins := met.NewBlockInstr()
	t0 := time.Now()
	// Intra-block parallelism rides the combo, not the wire protocol: a
	// coordinator that selected BitSetsParallel gets a work-stealing pool
	// here sized to the worker's GOMAXPROCS (mcealg's auto default), and the
	// pool's depth-first merge keeps the result bytes — and therefore the
	// task checksum and checkpoint digests — identical to a sequential run.
	// A pool-worker panic propagates to this goroutine and lands in the
	// recover above, preserving the worker's poison-task isolation.
	err = decomp.AnalyzeBlockInstr(b, combo, func(c []int32) {
		cp := make([]int32, len(c))
		copy(cp, c)
		res.Cliques = append(res.Cliques, cp)
	}, ins)
	met.ComboAnalyzed(combo.Index(), combo.Label(), time.Since(t0))
	met.MergeBlockInstr(ins)
	met.Add(telemetry.CliquesFound, int64(len(res.Cliques)))
	if err != nil {
		res.Err = err.Error()
		res.Cliques = nil
	}
	return res
}

// StartLocal launches n workers on ephemeral localhost ports and returns
// their addresses plus a stop function. It is the one-command stand-in for
// the paper's 10-machine deployment, used by tests, examples and benches.
// stop is idempotent: calling it twice is safe.
//
//lint:ignore ctxplumb lifecycle is owned by the returned stop function; ephemeral localhost listens cannot block, so a ctx adds nothing but an extra test-helper shape
func StartLocal(n int) (addrs []string, stop func(), err error) {
	var workers []*Worker
	var once sync.Once
	stop = func() {
		once.Do(func() {
			for _, w := range workers {
				_ = w.Close()
			}
		})
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("cluster: start local worker %d: %w", i, err)
		}
		w := &Worker{}
		workers = append(workers, w)
		addrs = append(addrs, ln.Addr().String())
		go func() { _ = w.Serve(ln) }()
	}
	return addrs, stop, nil
}
