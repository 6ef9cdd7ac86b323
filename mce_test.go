package mce

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mce/internal/cluster"
	"mce/internal/cluster/faultconn"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func TestEnumerateTriangleTail(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"0,1,2": true, "2,3": true}
	if len(res.Cliques) != 2 {
		t.Fatalf("Cliques = %v", res.Cliques)
	}
	for _, c := range res.Cliques {
		if !want[key(c)] {
			t.Fatalf("unexpected clique %v", c)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	g := FromEdges(2, []Edge{{U: 0, V: 1}})
	bad := []Option{
		WithBlockSize(1),
		WithBlockRatio(0),
		WithBlockRatio(1.5),
		WithParallelism(0),
		WithAlgorithm("NoSuch", "Lists"),
		WithAlgorithm("Tomita", "NoSuch"),
		WithMinBlockAdjacency(0),
		WithMaxLevels(0),
		WithWorkers(),
	}
	for i, opt := range bad {
		if _, err := Enumerate(g, opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
}

func TestEnumerateWithNamedCombos(t *testing.T) {
	g := GenerateSocialNetwork(150, 4, 0.6, 5)
	base, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"BKPivot", "Tomita", "Eppstein", "XPivot"} {
		for _, st := range []string{"Matrix", "Lists", "BitSets"} {
			res, err := Enumerate(g, WithAlgorithm(alg, st), WithBlockRatio(0.6))
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, st, err)
			}
			if len(res.Cliques) != len(base.Cliques) {
				t.Fatalf("%s/%s: %d cliques, want %d", alg, st, len(res.Cliques), len(base.Cliques))
			}
		}
	}
}

func TestEnumerateDistributed(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := GenerateBarabasiAlbert(250, 4, 11)
	local, err := Enumerate(g, WithBlockRatio(0.5))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Enumerate(g, WithBlockRatio(0.5), WithWorkers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Cliques) != len(local.Cliques) {
		t.Fatalf("distributed %d cliques vs local %d", len(dist.Cliques), len(local.Cliques))
	}
	lm := map[string]bool{}
	for _, c := range local.Cliques {
		lm[key(c)] = true
	}
	for _, c := range dist.Cliques {
		if !lm[key(c)] {
			t.Fatalf("distributed found unknown clique {%s}", key(c))
		}
	}
}

func TestEnumerateDistributedUnreachableWorkers(t *testing.T) {
	g := FromEdges(2, []Edge{{U: 0, V: 1}})
	if _, err := Enumerate(g, WithWorkers("127.0.0.1:1")); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	g := GenerateErdosRenyi(60, 0.1, 3)
	p := filepath.Join(t.TempDir(), "g.txt")
	if err := Save(p, g); err != nil {
		t.Fatal(err)
	}
	g2, labels, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("M = %d after round trip, want %d", g2.M(), g.M())
	}
	if labels.Len() == 0 && g.M() > 0 {
		t.Fatal("label map empty")
	}
	r1, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Enumerate(g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Cliques) != len(r2.Cliques) {
		t.Fatalf("clique count changed after round trip: %d vs %d", len(r1.Cliques), len(r2.Cliques))
	}
}

func TestBuilderExported(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cliques) != 2 {
		t.Fatalf("Cliques = %v", res.Cliques)
	}
}

func TestStatsExposed(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 13)
	res, err := Enumerate(g, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.BlockSize <= 0 || s.MaxDegree <= 0 || len(s.Levels) == 0 {
		t.Fatalf("stats incomplete: %+v", s)
	}
	if s.TotalCliques != len(res.Cliques) {
		t.Fatalf("TotalCliques = %d, want %d", s.TotalCliques, len(res.Cliques))
	}
}

func TestParseCombo(t *testing.T) {
	if _, err := ParseCombo("tomita", "bitsets"); err != nil {
		t.Fatalf("lowercase names rejected: %v", err)
	}
	if _, err := ParseCombo("", ""); err == nil {
		t.Fatal("empty names accepted")
	}
}

func TestSchedulingAndFilterOptions(t *testing.T) {
	g := GenerateSocialNetwork(400, 5, 0.7, 21)
	base, err := Enumerate(g, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Enumerate(g, WithBlockRatio(0.3), WithHeaviestFirst())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cliques) != len(tuned.Cliques) {
		t.Fatalf("options changed results: %d vs %d", len(base.Cliques), len(tuned.Cliques))
	}
	for i := range base.Cliques {
		if key(base.Cliques[i]) != key(tuned.Cliques[i]) {
			t.Fatalf("options permuted output at %d", i)
		}
	}
}

func TestEnumerateStreamPublicAPI(t *testing.T) {
	g := GenerateSocialNetwork(300, 4, 0.6, 33)
	batch, err := Enumerate(g, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int32
	stats, err := EnumerateStream(g, func(c []int32, _ int) {
		cp := make([]int32, len(c))
		copy(cp, c)
		got = append(got, cp)
	}, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch.Cliques) || stats.TotalCliques != len(got) {
		t.Fatalf("stream %d cliques (stats %d), batch %d", len(got), stats.TotalCliques, len(batch.Cliques))
	}
	for i := range got {
		if key(got[i]) != key(batch.Cliques[i]) {
			t.Fatalf("stream order diverges at %d", i)
		}
	}
	if _, err := EnumerateStream(g, func([]int32, int) {}, WithBlockRatio(9)); err == nil {
		t.Fatal("bad option accepted")
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := EnumerateStream(g, func([]int32, int) {}, WithCheckpoint(dir)); err == nil {
		t.Fatal("streaming accepted a checkpoint")
	}
	if HasCheckpoint(dir) {
		t.Fatal("refused streaming run still created checkpoint state")
	}
}

func TestLoadBounded(t *testing.T) {
	g := GenerateSocialNetwork(300, 4, 0.6, 77)
	p := filepath.Join(t.TempDir(), "g.txt")
	if err := Save(p, g); err != nil {
		t.Fatal(err)
	}
	a, _, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := LoadBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("bounded loader diverged: n=%d/%d m=%d/%d", a.N(), b.N(), a.M(), b.M())
	}
	ra, err := Enumerate(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Enumerate(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Cliques) != len(rb.Cliques) {
		t.Fatalf("clique counts differ: %d vs %d", len(ra.Cliques), len(rb.Cliques))
	}
}

func TestCountMaxCliques(t *testing.T) {
	g := GenerateSocialNetwork(200, 4, 0.6, 71)
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountMaxCliques(g)
	if err != nil || n != len(res.Cliques) {
		t.Fatalf("CountMaxCliques = %d, %v; want %d", n, err, len(res.Cliques))
	}
	if _, err := CountMaxCliques(g, WithBlockRatio(5)); err == nil {
		t.Fatal("bad option accepted")
	}
}

func TestFaultToleranceOptionValidation(t *testing.T) {
	g := FromEdges(2, []Edge{{U: 0, V: 1}})
	bad := []Option{
		WithTaskTimeout(0), // ambiguous: derived default vs disabled
		WithTaskRetries(0), // ambiguous: default budget vs unlimited
		WithWorkerReport(nil),
	}
	for i, opt := range bad {
		if _, err := Enumerate(g, opt); err == nil {
			t.Errorf("bad fault-tolerance option %d accepted", i)
		}
	}
}

func TestEnumerateDistributedWithFaultOptions(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := GenerateSocialNetwork(250, 4, 0.6, 51)
	local, err := Enumerate(g, WithBlockRatio(0.5))
	if err != nil {
		t.Fatal(err)
	}
	var report *DialReport
	dist, err := Enumerate(g,
		WithBlockRatio(0.5),
		WithWorkers(addrs...),
		WithTaskTimeout(30*time.Second),
		WithTaskRetries(5),
		WithAutoReconnect(),
		WithWorkerReport(func(r DialReport) { report = &r }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Cliques) != len(local.Cliques) {
		t.Fatalf("fault-tolerant run found %d cliques, want %d", len(dist.Cliques), len(local.Cliques))
	}
	if report == nil {
		t.Fatal("WithWorkerReport callback never invoked")
	}
	if report.Degraded() || report.Connected != 2 || len(report.Addrs) != 2 {
		t.Fatalf("report = %+v, want clean 2-worker start", *report)
	}
}

// TestPoisonSkipsReportedOnBothPaths runs Enumerate and EnumerateStream
// against a worker whose every connection dies on its first task after the
// handshake. With one retry and skip-poison mode each block becomes a
// recorded skip, and both paths must surface it: Stats.SkippedBlocks, the
// poison report and the health report.
func TestPoisonSkipsReportedOnBothPaths(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// SkipOps covers the handshake (up to two reads for the hello, two
	// writes for the ack); the first task's round trip then closes.
	dying := faultconn.Listener(ln, faultconn.Options{Seed: 1, CloseProb: 1, SkipOps: 4})
	go func() {
		for {
			conn, err := dying.Accept()
			if err != nil {
				return
			}
			go func() { _ = cluster.ServeConn(conn) }()
		}
	}()

	// With m above every degree the whole graph is one level with a block
	// or two; each skip costs one connection, so open spares.
	g := GenerateErdosRenyi(30, 0.3, 19)
	run := func(name string, enumerate func(opts ...Option) (*Stats, error)) {
		var verdicts []PoisonVerdict
		healthReported := false
		stats, err := enumerate(
			WithBlockSize(g.N()),
			WithWorkers(ln.Addr().String()),
			WithWorkerStreams(8),
			WithTaskRetries(1),
			WithSkipPoisonTasks(),
			WithPoisonReport(func(vs []PoisonVerdict) { verdicts = vs }),
			WithWorkerHealthReport(func(HealthReport) { healthReported = true }),
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.SkippedBlocks == 0 || stats.SkippedBlocks != stats.Levels[0].Blocks {
			t.Fatalf("%s: SkippedBlocks = %d, want every one of %d blocks", name, stats.SkippedBlocks, stats.Levels[0].Blocks)
		}
		if len(verdicts) != stats.SkippedBlocks {
			t.Fatalf("%s: poison report carried %d verdicts, want %d", name, len(verdicts), stats.SkippedBlocks)
		}
		if !healthReported {
			t.Fatalf("%s: worker health report never fired", name)
		}
	}
	run("Enumerate", func(opts ...Option) (*Stats, error) {
		res, err := Enumerate(g, opts...)
		if err != nil {
			return nil, err
		}
		return &res.Stats, nil
	})
	run("EnumerateStream", func(opts ...Option) (*Stats, error) {
		return EnumerateStream(g, func([]int32, int) {}, opts...)
	})
}

func TestEnumerateContextCancelled(t *testing.T) {
	g := GenerateSocialNetwork(200, 4, 0.6, 53)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EnumerateContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnumerateContext err = %v, want context.Canceled", err)
	}
	_, err := EnumerateStreamContext(ctx, g, func([]int32, int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EnumerateStreamContext err = %v, want context.Canceled", err)
	}
}
