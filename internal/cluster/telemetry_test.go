package cluster

import (
	"encoding/gob"
	"net"
	"testing"

	"mce/internal/gen"
	"mce/internal/telemetry"
)

// startMeteredWorker runs one Worker with its own telemetry engine.
func startMeteredWorker(t *testing.T) (addr string, eng *telemetry.Engine, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng = telemetry.NewEngine()
	w := &Worker{Metrics: eng}
	go func() { _ = w.Serve(ln) }()
	return ln.Addr().String(), eng, func() { _ = w.Close() }
}

func TestClientAndWorkerTelemetry(t *testing.T) {
	addr, workerEng, stop := startMeteredWorker(t)
	defer stop()

	clientEng := telemetry.NewEngine()
	c, err := Dial([]string{addr}, ClientOptions{Metrics: clientEng})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	g := gen.ErdosRenyi(60, 0.25, 2)
	blocks, combos := makeBlocks(g, g.MaxDegree()+1)
	if len(blocks) < 2 {
		t.Fatalf("want ≥ 2 blocks, got %d", len(blocks))
	}
	out, err := c.AnalyzeBlocks(blocks, combos)
	if err != nil {
		t.Fatal(err)
	}
	var cliques int64
	for _, cs := range out {
		cliques += int64(len(cs))
	}

	cs := clientEng.Snapshot()
	if cs.RoundTripNs.Count != int64(len(blocks)) {
		t.Fatalf("round trips = %d, want %d", cs.RoundTripNs.Count, len(blocks))
	}
	if cs.QueueDepth != 0 || cs.TasksInFlight != 0 {
		t.Fatalf("client gauges not drained: queue=%d inflight=%d", cs.QueueDepth, cs.TasksInFlight)
	}
	if cs.BytesSent == 0 || cs.BytesReceived == 0 {
		t.Fatalf("client wire accounting empty: sent=%d recv=%d", cs.BytesSent, cs.BytesReceived)
	}
	if cs.TaskRetries != 0 || cs.PoisonTasks != 0 || cs.CorruptResults != 0 {
		t.Fatalf("spurious failures recorded: %+v", cs)
	}

	// The worker counts a result's bytes after flushing it, so the client
	// can hold the last result before the worker's counter moves. Close
	// waits for in-flight tasks to finish, which makes the counters final.
	stop()
	ws := workerEng.Snapshot()
	if ws.TasksServed != int64(len(blocks)) {
		t.Fatalf("worker served %d tasks, want %d", ws.TasksServed, len(blocks))
	}
	if ws.TaskErrors != 0 || ws.TaskPanics != 0 {
		t.Fatalf("worker recorded failures: %+v", ws)
	}
	if ws.CliquesFound != cliques {
		t.Fatalf("worker found %d cliques, client received %d", ws.CliquesFound, cliques)
	}
	if ws.RecursionNodes == 0 || ws.BlocksAnalyzed != int64(len(blocks)) {
		t.Fatalf("worker algorithm counters: nodes=%d blocks=%d", ws.RecursionNodes, ws.BlocksAnalyzed)
	}
	// Conservation: what the client sent is what the worker received, and
	// vice versa (wireSize is deterministic on both sides).
	if cs.BytesSent != ws.BytesReceived || cs.BytesReceived != ws.BytesSent {
		t.Fatalf("wire accounting disagrees: client %d/%d, worker %d/%d",
			cs.BytesSent, cs.BytesReceived, ws.BytesSent, ws.BytesReceived)
	}
}

func TestClientTelemetryRetryAndReconnect(t *testing.T) {
	// A worker that dies after the handshake forces a transport failure;
	// the block must be retried on the surviving worker and the counters
	// must show one retry and no poison verdict.
	okAddr, _, stopOK := startMeteredWorker(t)
	defer stopOK()

	// Answer the handshake, swallow the first task and hang up.
	flakyAddr := fakeWorker(t, func(conn net.Conn) {
		defer conn.Close()
		dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
		var h hello
		if dec.Decode(&h) != nil {
			return
		}
		if enc.Encode(helloAck{Version: protocolVersion}) != nil {
			return
		}
		var task blockTask
		_ = dec.Decode(&task)
	})

	eng := telemetry.NewEngine()
	c, err := Dial([]string{flakyAddr, okAddr}, ClientOptions{Metrics: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	g := gen.ErdosRenyi(40, 0.3, 4)
	blocks, combos := makeBlocks(g, g.MaxDegree()+1)
	if _, err := c.AnalyzeBlocks(blocks, combos); err != nil {
		t.Fatal(err)
	}
	s := eng.Snapshot()
	if s.TaskRetries == 0 {
		t.Fatal("no retry recorded after a worker death")
	}
	if s.PoisonTasks != 0 {
		t.Fatalf("poison verdict on a retryable failure: %+v", s)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth leaked: %d", s.QueueDepth)
	}

	// A manual Reconnect revives the retired connection (the fake worker
	// still accepts and handshakes) and must count it.
	before := eng.Snapshot().Reconnects
	if _, err := c.Reconnect(); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if got := eng.Snapshot().Reconnects; got != before+1 {
		t.Fatalf("Reconnects = %d, want %d", got, before+1)
	}
}
