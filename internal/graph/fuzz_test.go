package graph

import (
	"slices"
	"testing"
)

// FuzzInduced maps bytes to a graph of at most 32 nodes (byte pairs are
// edges up to a 0xff separator) and a selection (the remaining bytes, so
// unsorted and with repeats), then checks Induced against the HasEdge
// reference on the selection and its reverse through one Inducer.
func FuzzInduced(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 3, 4, 0xff, 0, 1, 2, 4})
	f.Add([]byte{8, 0, 7, 1, 6, 7, 6, 0xff, 7, 0, 7, 3, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%32) + 1
		data = data[1:]
		b := NewBuilder(int(n))
		for len(data) >= 2 && data[0] != 0xff {
			b.AddEdge(int32(data[0])%n, int32(data[1])%n)
			data = data[2:]
		}
		if len(data) > 0 {
			data = data[1:] // the separator
		}
		sel := make([]int32, len(data))
		for i, c := range data {
			sel[i] = int32(c) % n
		}
		g := b.Build()
		var in Inducer
		for pass := 0; pass < 2; pass++ {
			sub, orig := in.Induced(g, sel)
			if msg := checkInduced(g, sel, sub, orig); msg != "" {
				t.Fatalf("pass %d, selection %v: %s", pass, sel, msg)
			}
			slices.Reverse(sel)
		}
	})
}
