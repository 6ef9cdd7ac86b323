package cliqdb

import (
	"path/filepath"
	"testing"

	"mce/internal/gen"
	"mce/internal/mcealg"
)

// denseCliques is the maximal-clique family of G(200, 0.5) seed 1 — the
// perfbench dense workload's family (about 489k cliques, 3.4M memberships).
func denseCliques(b *testing.B) [][]int32 {
	b.Helper()
	cliques, err := mcealg.Collect(gen.ErdosRenyi(200, 0.5, 1), mcealg.Combo{Alg: mcealg.BKPivot, Struct: mcealg.BitSets})
	if err != nil {
		b.Fatal(err)
	}
	return cliques
}

// BenchmarkBuild times the compile of the dense family into an index file.
func BenchmarkBuild(b *testing.B) {
	cliques := denseCliques(b)
	path := filepath.Join(b.TempDir(), "dense.mcdb")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cliques, path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen times reading and fully verifying the dense family's index.
func BenchmarkOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "dense.mcdb")
	if _, err := Build(denseCliques(b), path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(path); err != nil {
			b.Fatal(err)
		}
	}
}
