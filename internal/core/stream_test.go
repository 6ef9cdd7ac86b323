package core

import (
	"errors"
	"testing"
	"testing/quick"

	"mce/internal/gen"
	"mce/internal/graph"
)

// collectStream drains Stream into slices for comparison with the batch
// engine.
func collectStream(t *testing.T, g *graph.Graph, opts Options) ([][]int32, []int, *Stats) {
	t.Helper()
	var cliques [][]int32
	var levels []int
	stats, err := Stream(g, opts, func(c []int32, level int) {
		cp := make([]int32, len(c))
		copy(cp, c)
		cliques = append(cliques, cp)
		levels = append(levels, level)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cliques, levels, stats
}

func TestStreamMatchesBatch(t *testing.T) {
	g := gen.HolmeKim(500, 5, 0.7, 37)
	for _, ratio := range []float64{0.9, 0.4, 0.1} {
		batch, err := FindMaxCliques(g, Options{BlockRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		cliques, levels, stats := collectStream(t, g, Options{BlockRatio: ratio})
		if len(cliques) != len(batch.Cliques) {
			t.Fatalf("ratio %v: stream %d cliques, batch %d", ratio, len(cliques), len(batch.Cliques))
		}
		for i := range cliques {
			if key(cliques[i]) != key(batch.Cliques[i]) || levels[i] != batch.Level[i] {
				t.Fatalf("ratio %v: stream diverges at %d: %v/%d vs %v/%d",
					ratio, i, cliques[i], levels[i], batch.Cliques[i], batch.Level[i])
			}
		}
		if stats.TotalCliques != len(cliques) {
			t.Fatalf("stats.TotalCliques = %d, emitted %d", stats.TotalCliques, len(cliques))
		}
		if stats.HubCliques != batch.Stats.HubCliques {
			t.Fatalf("HubCliques: stream %d, batch %d", stats.HubCliques, batch.Stats.HubCliques)
		}
		if len(stats.Levels) != len(batch.Stats.Levels) {
			t.Fatalf("level counts differ: %d vs %d", len(stats.Levels), len(batch.Stats.Levels))
		}
	}
}

func TestStreamEmptyGraph(t *testing.T) {
	if _, err := Stream(graph.Empty(0), Options{}, func([]int32, int) {}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestStreamCoreFallback(t *testing.T) {
	g := graph.Complete(8)
	cliques, levels, stats := collectStream(t, g, Options{BlockSize: 3})
	if !stats.CoreFallback {
		t.Fatal("expected fallback on stalled recursion")
	}
	if len(cliques) != 1 || key(cliques[0]) != "0,1,2,3,4,5,6,7" || levels[0] != 0 {
		t.Fatalf("stream fallback = %v @ %v", cliques, levels)
	}
}

func TestStreamHardChain(t *testing.T) {
	g := gen.HardChain(30, 4, 0)
	// The second case caps the recursion below its natural depth: the cap
	// must fire at the same absolute depth on both engines.
	for _, opts := range []Options{{BlockSize: 5}, {BlockSize: 5, MaxLevels: 2}} {
		cliques, levels, stats := collectStream(t, g, opts)
		batch, err := FindMaxCliques(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(cliques) != len(batch.Cliques) {
			t.Fatalf("MaxLevels %d: stream %d vs batch %d cliques", opts.MaxLevels, len(cliques), len(batch.Cliques))
		}
		for i := range cliques {
			if key(cliques[i]) != key(batch.Cliques[i]) || levels[i] != batch.Level[i] {
				t.Fatalf("MaxLevels %d: stream diverges at %d: %v/%d vs %v/%d",
					opts.MaxLevels, i, cliques[i], levels[i], batch.Cliques[i], batch.Level[i])
			}
		}
		if len(stats.Levels) != len(batch.Stats.Levels) {
			t.Fatalf("MaxLevels %d: level counts %d vs %d", opts.MaxLevels, len(stats.Levels), len(batch.Stats.Levels))
		}
		if stats.CoreFallback != batch.Stats.CoreFallback {
			t.Fatalf("MaxLevels %d: CoreFallback stream %v, batch %v", opts.MaxLevels, stats.CoreFallback, batch.Stats.CoreFallback)
		}
	}
}

func TestStreamEmitBufferReused(t *testing.T) {
	// The emitted slice may be reused; a caller who stores aliases would
	// corrupt data. Verify correctness with a copying caller and that a
	// hostile mutation does not break later emissions.
	g := gen.ErdosRenyi(60, 0.2, 4)
	count := 0
	_, err := Stream(g, Options{}, func(c []int32, _ int) {
		count++
		for i := range c {
			c[i] = -1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := FindMaxCliques(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(batch.Cliques) {
		t.Fatalf("hostile caller broke the stream: %d vs %d", count, len(batch.Cliques))
	}
}

// Property: streaming equals batch for random graphs and ratios.
func TestQuickStreamEqualsBatch(t *testing.T) {
	f := func(seed int64, rawRatio uint8) bool {
		g := gen.BarabasiAlbert(int(seed%70)+15, 3, seed)
		ratio := 0.1 + float64(rawRatio%9)*0.1
		batch, err := FindMaxCliques(g, Options{BlockRatio: ratio})
		if err != nil {
			return false
		}
		got := map[string]bool{}
		n := 0
		_, err = Stream(g, Options{BlockRatio: ratio}, func(c []int32, _ int) {
			cp := make([]int32, len(c))
			copy(cp, c)
			got[key(cp)] = true
			n++
		})
		if err != nil || n != len(batch.Cliques) || len(got) != n {
			return false
		}
		for _, c := range batch.Cliques {
			if !got[key(c)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
