// Package community turns the output of maximal clique enumeration into
// overlapping communities, the application the paper motivates (§1, §7) and
// the k-clique relaxation it names as future work (§8).
//
// The method is clique percolation (Palla et al., as implemented by
// CFinder and by the parallel k-clique detector of Gregori et al. [20]):
// two maximal cliques of size ≥ k belong to the same k-clique community
// when they can be connected by a chain of maximal cliques in which
// consecutive cliques share at least k−1 nodes. A node may belong to
// several communities — the overlapping behaviour the paper argues plain
// edge clustering cannot deliver (§7).
package community

import (
	"cmp"
	"fmt"
	"slices"
)

// Community is one overlapping community: the union of the nodes of a
// percolation-connected clique family.
type Community struct {
	// Nodes lists the members, ascending.
	Nodes []int32
	// Cliques counts how many maximal cliques merged into the community.
	Cliques int
	// MaxCliqueSize is the size of the largest constituent clique.
	MaxCliqueSize int
}

// Detect runs k-clique percolation over a family of maximal cliques (as
// produced by the enumeration engine). Cliques smaller than k are ignored.
// Communities are returned largest-first, ties by ascending node list.
func Detect(cliques [][]int32, k int) ([]Community, error) {
	if k < 2 {
		return nil, fmt.Errorf("community: k = %d, want ≥ 2", k)
	}
	// Keep only cliques large enough to host a k-clique.
	var kept [][]int32
	for _, c := range cliques {
		if len(c) >= k {
			kept = append(kept, c)
		}
	}
	uf := newUnionFind(len(kept))

	// Two maximal cliques percolate when they share ≥ k−1 nodes. Candidate
	// pairs must share at least one node, so an inverted node→clique index
	// bounds the pair scan.
	byNode := map[int32][]int32{}
	for i, c := range kept {
		for _, v := range c {
			byNode[v] = append(byNode[v], int32(i))
		}
	}
	for _, ids := range byNode {
		for x := 1; x < len(ids); x++ {
			a := ids[x]
			for _, b := range ids[:x] {
				if uf.find(int(a)) == uf.find(int(b)) {
					continue
				}
				if overlapAtLeast(kept[a], kept[b], k-1) {
					uf.union(int(a), int(b))
				}
			}
		}
	}

	groups := map[int][]int{}
	for i := range kept {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([]Community, 0, len(groups))
	for _, ids := range groups {
		members := map[int32]bool{}
		maxSize := 0
		for _, i := range ids {
			if len(kept[i]) > maxSize {
				maxSize = len(kept[i])
			}
			for _, v := range kept[i] {
				members[v] = true
			}
		}
		nodes := make([]int32, 0, len(members))
		for v := range members {
			nodes = append(nodes, v)
		}
		slices.Sort(nodes)
		out = append(out, Community{Nodes: nodes, Cliques: len(ids), MaxCliqueSize: maxSize})
	}
	// Communities overlap, so two of one size can share their first node;
	// the full node lists (then the remaining fields) break the tie,
	// keeping the order independent of map iteration.
	slices.SortFunc(out, func(a, b Community) int {
		return cmp.Or(
			cmp.Compare(len(b.Nodes), len(a.Nodes)),
			slices.Compare(a.Nodes, b.Nodes),
			cmp.Compare(a.Cliques, b.Cliques),
			cmp.Compare(a.MaxCliqueSize, b.MaxCliqueSize),
		)
	})
	return out, nil
}

// Membership inverts a community list into node → community indices
// (ascending), exposing the overlap structure.
func Membership(communities []Community) map[int32][]int {
	m := map[int32][]int{}
	for i, c := range communities {
		for _, v := range c.Nodes {
			m[v] = append(m[v], i)
		}
	}
	return m
}

// overlapAtLeast reports |a ∩ b| ≥ want for ascending slices, stopping as
// soon as the bound is met or unreachable.
func overlapAtLeast(a, b []int32, want int) bool {
	if want <= 0 {
		return true
	}
	i, j, got := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			got++
			if got >= want {
				return true
			}
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
		if got+min(len(a)-i, len(b)-j) < want {
			return false
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// unionFind is a path-halving weighted union-find over [0, n).
type unionFind struct {
	parent []int
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// Scales runs Detect for every k in ks and returns the communities per k —
// the resolution sweep community studies report (large k: tight cores;
// small k: broad percolating clusters). The clique family is shared across
// scales, so the sweep costs one pass per k over the same index.
func Scales(cliques [][]int32, ks []int) (map[int][]Community, error) {
	out := make(map[int][]Community, len(ks))
	for _, k := range ks {
		cs, err := Detect(cliques, k)
		if err != nil {
			return nil, err
		}
		out[k] = cs
	}
	return out, nil
}

// SizeDistribution returns counts[s] = number of communities with exactly s
// nodes, a compact fingerprint of a community family.
func SizeDistribution(communities []Community) map[int]int {
	out := map[int]int{}
	for _, c := range communities {
		out[len(c.Nodes)]++
	}
	return out
}
