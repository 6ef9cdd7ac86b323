package cliqdb

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mce/internal/gen"
	"mce/internal/mcealg"
)

// TestIndexImageGolden pins the on-disk format byte for byte. OpenOrRebuild
// heals a corrupt index by recompiling it and relies on the recompile being
// byte-identical to indexes already on disk, so an encoder rewrite that
// changes a single byte — a different tie order, a different varint, a
// different section layout — must fail here rather than in the field. The
// constants were taken from the comparison-sort encoder that preceded the
// radix/counting-sort one.
func TestIndexImageGolden(t *testing.T) {
	erCliques := func(t *testing.T) [][]int32 {
		cliques, err := mcealg.Collect(gen.ErdosRenyi(60, 0.5, 3), mcealg.Combo{Alg: mcealg.BKPivot, Struct: mcealg.BitSets})
		if err != nil {
			t.Fatal(err)
		}
		return cliques
	}
	for _, tc := range []struct {
		name    string
		family  func(t *testing.T) [][]int32
		cliques int
		bytes   int
		sha256  string
	}{
		{"hand-written", func(*testing.T) [][]int32 { return testCliques() }, 6, 440,
			"98b9f2d950abab9519a09eee007c5549f86eefc3ddc2637fa6ca33a99fbea12e"},
		{"holme-kim", func(t *testing.T) [][]int32 { return realCliques(t) }, 916, 16524,
			"77db0c3e487211c59a35a20851d85d275d38dfa3dddc4da066c5ea93cb439cc3"},
		{"erdos-renyi", erCliques, 1895, 38274,
			"39d879fe28d525302bca08e5960a7905cda9b474db0e35779a821ac33a7c6f6a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			image, st, err := encode(tc.family(t))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(image)
			if st.Cliques != tc.cliques || len(image) != tc.bytes || hex.EncodeToString(sum[:]) != tc.sha256 {
				t.Fatalf("image: %d cliques, %d B, sha256 %x; want %d cliques, %d B, sha256 %s",
					st.Cliques, len(image), sum, tc.cliques, tc.bytes, tc.sha256)
			}
		})
	}
}
