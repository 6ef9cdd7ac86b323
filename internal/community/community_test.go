package community

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func TestInvalidK(t *testing.T) {
	if _, err := Detect(nil, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	cs, err := Detect(nil, 3)
	if err != nil || len(cs) != 0 {
		t.Fatalf("Detect(nil) = %v, %v", cs, err)
	}
}

func TestTrianglesSharingEdgeMerge(t *testing.T) {
	// Cliques {0,1,2} and {1,2,3} share 2 nodes: one k=3 community.
	cs, err := Detect([][]int32{{0, 1, 2}, {1, 2, 3}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "0,1,2,3" {
		t.Fatalf("communities = %+v", cs)
	}
	if cs[0].Cliques != 2 || cs[0].MaxCliqueSize != 3 {
		t.Fatalf("stats = %+v", cs[0])
	}
}

func TestTrianglesSharingVertexStaySeparate(t *testing.T) {
	// Sharing only one node (< k−1 = 2): two communities.
	cs, err := Detect([][]int32{{0, 1, 2}, {2, 3, 4}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("communities = %+v", cs)
	}
	// But at k=2 (overlap ≥ 1) they merge.
	cs, err = Detect([][]int32{{0, 1, 2}, {2, 3, 4}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "0,1,2,3,4" {
		t.Fatalf("k=2 communities = %+v", cs)
	}
}

func TestSmallCliquesIgnored(t *testing.T) {
	// Edges (2-cliques) cannot seed a k=3 community.
	cs, err := Detect([][]int32{{0, 1}, {2, 3}, {4, 5, 6}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "4,5,6" {
		t.Fatalf("communities = %+v", cs)
	}
}

func TestChainOfCliquesPercolates(t *testing.T) {
	// A percolation chain: each consecutive pair overlaps in 2 nodes, the
	// ends share nothing — still one community via the chain.
	cliques := [][]int32{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	cs, err := Detect(cliques, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "0,1,2,3,4,5" {
		t.Fatalf("communities = %+v", cs)
	}
}

func TestCommunitiesSortedBySize(t *testing.T) {
	cs, err := Detect([][]int32{{0, 1, 2}, {10, 11, 12}, {11, 12, 13}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(cs[0].Nodes) < len(cs[1].Nodes) {
		t.Fatalf("not size-ordered: %+v", cs)
	}
}

// TestTiedCommunitiesDeterministic pins the tie order of equal-size
// communities that share their smallest node: {0,1,2,3} and {0,4,5,6} both
// have four nodes and start at 0, so only the full node list orders them.
// Detect walks maps internally; the answer must not depend on that walk or
// on the input order.
func TestTiedCommunitiesDeterministic(t *testing.T) {
	family := [][]int32{{0, 1, 2}, {1, 2, 3}, {0, 4, 5}, {4, 5, 6}}
	want := "0,1,2,3|0,4,5,6"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		in := append([][]int32(nil), family...)
		if i%2 == 1 {
			rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		}
		cs, err := Detect(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]string, len(cs))
		for j, c := range cs {
			parts[j] = key(c.Nodes)
		}
		if got := strings.Join(parts, "|"); got != want {
			t.Fatalf("call %d on %v: communities %s, want %s", i, in, got, want)
		}
	}
}

func TestMembershipOverlap(t *testing.T) {
	cs, err := Detect([][]int32{{0, 1, 2}, {2, 3, 4}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := Membership(cs)
	if len(m[2]) != 2 {
		t.Fatalf("node 2 should be in both communities: %v", m[2])
	}
	if len(m[0]) != 1 || len(m[4]) != 1 {
		t.Fatalf("membership = %v", m)
	}
}

func TestEndToEndTwoPlantedCommunities(t *testing.T) {
	// Two K6s bridged by a single edge: clique percolation at k=4 must
	// recover exactly the two plants.
	b := graph.NewBuilder(12)
	for u := int32(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+6, v+6)
		}
	}
	b.AddEdge(5, 6)
	g := b.Build()
	cliques := mcealg.ReferenceCollect(g)
	cs, err := Detect(cliques, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("communities = %+v", cs)
	}
	got := map[string]bool{key(cs[0].Nodes): true, key(cs[1].Nodes): true}
	if !got["0,1,2,3,4,5"] || !got["6,7,8,9,10,11"] {
		t.Fatalf("wrong communities: %+v", cs)
	}
}

// Property: Detect is a partition refinement — every input clique of size
// ≥ k lands in exactly one community, and communities' clique counts sum to
// the number of kept cliques.
func TestQuickCliqueAccounting(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.HolmeKim(int(seed%100)+30, 4, 0.6, seed)
		cliques := mcealg.ReferenceCollect(g)
		k := 3
		cs, err := Detect(cliques, k)
		if err != nil {
			return false
		}
		kept := 0
		for _, c := range cliques {
			if len(c) >= k {
				kept++
			}
		}
		sum := 0
		for _, com := range cs {
			sum += com.Cliques
			if com.MaxCliqueSize < k || len(com.Nodes) < k {
				return false
			}
		}
		return sum == kept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: percolation transitivity — if cliques A,B overlap ≥ k−1 they
// are in the same community.
func TestQuickAdjacentCliquesSameCommunity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(25, 0.35, seed)
		cliques := mcealg.ReferenceCollect(g)
		k := 3
		cs, err := Detect(cliques, k)
		if err != nil {
			return false
		}
		// Community index per clique key.
		commOf := map[string]int{}
		for i, com := range cs {
			for _, c := range cliques {
				if len(c) < k {
					continue
				}
				inside := true
				for _, v := range c {
					if !contains(com.Nodes, v) {
						inside = false
						break
					}
				}
				if inside {
					if _, dup := commOf[key(c)]; !dup {
						commOf[key(c)] = i
					}
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			if len(cliques) < 2 {
				break
			}
			a := cliques[rng.Intn(len(cliques))]
			b := cliques[rng.Intn(len(cliques))]
			if len(a) < k || len(b) < k {
				continue
			}
			if overlapAtLeast(a, b, k-1) && commOf[key(a)] != commOf[key(b)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestOverlapAtLeast(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
		ok   bool
	}{
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2, true},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 3, false},
		{[]int32{1, 2}, []int32{3, 4}, 1, false},
		{[]int32{}, []int32{1}, 0, true},
		{[]int32{1}, []int32{1}, 1, true},
	}
	for _, c := range cases {
		if got := overlapAtLeast(c.a, c.b, c.want); got != c.ok {
			t.Errorf("overlapAtLeast(%v, %v, %d) = %v, want %v", c.a, c.b, c.want, got, c.ok)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(2, 3)
	uf.union(1, 2)
	if uf.find(0) != uf.find(3) {
		t.Fatal("union chain broken")
	}
	if uf.find(4) == uf.find(0) || uf.find(4) == uf.find(5) {
		t.Fatal("separate elements merged")
	}
}

func BenchmarkDetect(b *testing.B) {
	g := gen.HolmeKim(3000, 6, 0.7, 21)
	cliques, err := mcealg.Collect(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(cliques, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScales(t *testing.T) {
	cliques := [][]int32{{0, 1, 2, 3}, {2, 3, 4}, {6, 7, 8}}
	scales, err := Scales(cliques, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// k=2: {0..4} merge (overlap ≥ 1), {6,7,8} separate → 2 communities.
	if len(scales[2]) != 2 {
		t.Fatalf("k=2 scales = %+v", scales[2])
	}
	// k=3: {0,1,2,3} and {2,3,4} share 2 nodes → merge; still 2.
	if len(scales[3]) != 2 {
		t.Fatalf("k=3 scales = %+v", scales[3])
	}
	// k=4: only the 4-clique qualifies.
	if len(scales[4]) != 1 || len(scales[4][0].Nodes) != 4 {
		t.Fatalf("k=4 scales = %+v", scales[4])
	}
	if _, err := Scales(cliques, []int{1}); err == nil {
		t.Fatal("invalid k accepted in sweep")
	}
}

func TestSizeDistribution(t *testing.T) {
	cs := []Community{
		{Nodes: []int32{1, 2, 3}},
		{Nodes: []int32{4, 5, 6}},
		{Nodes: []int32{7, 8}},
	}
	d := SizeDistribution(cs)
	if d[3] != 2 || d[2] != 1 || len(d) != 2 {
		t.Fatalf("distribution = %v", d)
	}
}
