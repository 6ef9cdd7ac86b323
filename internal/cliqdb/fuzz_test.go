package cliqdb

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
)

// FuzzIndexOpen hardens the open path against arbitrary bytes: whatever the
// mutator does to headers, frames, offset tables or payloads, openBytes
// must either reject the image or produce a DB whose every lookup is
// consistent — never panic, never serve wrong data. The seed corpus
// includes well-formed indexes so the mutator starts from deep inside the
// format rather than bouncing off the magic check.
func FuzzIndexOpen(f *testing.F) {
	seed := func(cliques [][]int32) []byte {
		image, _, err := encode(cliques)
		if err != nil {
			f.Fatal(err)
		}
		return image
	}
	f.Add(seed(nil))
	f.Add(seed([][]int32{{0, 1, 2}, {1, 2, 3}, {4, 9}}))
	f.Add(seed([][]int32{{0, 5, 100}, {2, 3}, {3, 4, 5, 6}, {0, 1}}))
	f.Add([]byte{})
	f.Add([]byte("MCEDB1\r\nnot really an index MCEDBEND"))

	// Regression seeds for the uint64 wrap in the open-path bounds checks:
	// offsets near 2^64 made the old addition-form checks (off+overhead >
	// len) wrap around and pass, so openBytes panicked slicing instead of
	// returning ErrCorrupt. The second image re-CRCs the footer after
	// rewriting the CLIQ entry's offset so it reaches the section bounds
	// check rather than dying at the footer CRC.
	hugeFoot := append([]byte(nil), headMagic[:]...)
	hugeFoot = binary.LittleEndian.AppendUint64(hugeFoot, ^uint64(7)) // footOff = 2^64-8
	hugeFoot = append(hugeFoot, tailMagic[:]...)
	f.Add(hugeFoot)
	rewriteSectionOff := func(image []byte, entry int, off uint64) []byte {
		img := append([]byte(nil), image...)
		footOff := binary.LittleEndian.Uint64(img[len(img)-trailerLen:])
		payLen := binary.LittleEndian.Uint64(img[footOff+4 : footOff+12])
		pay := img[footOff+12 : footOff+12+payLen]
		binary.LittleEndian.PutUint64(pay[4+entry*24+4:], off)
		binary.LittleEndian.PutUint32(img[footOff+12+payLen:], crc32.ChecksumIEEE(pay))
		return img
	}
	f.Add(rewriteSectionOff(seed([][]int32{{0, 1, 2}, {1, 2, 3}, {4, 9}}), 1, ^uint64(4))) // CLIQ off = 2^64-5

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := openBytes(data)
		if err != nil {
			return // rejected: exactly what corruption should get
		}
		// The image verified; every query the daemon can issue must now be
		// total and self-consistent.
		cliques := db.Cliques()
		if len(cliques) != db.NumCliques() {
			t.Fatalf("Cliques() yields %d, NumCliques says %d", len(cliques), db.NumCliques())
		}
		for id, c := range cliques {
			if db.CliqueSize(uint32(id)) != len(c) {
				t.Fatalf("clique %d: size index says %d, decode says %d", id, db.CliqueSize(uint32(id)), len(c))
			}
			for _, v := range c {
				if v < 0 || v >= db.NumVertices() {
					t.Fatalf("clique %d member %d outside vertex space", id, v)
				}
			}
		}
		for v := int32(0); v < db.NumVertices(); v++ {
			ids := db.AppendCliquesOf(nil, v)
			if len(ids) != db.CliqueCount(v) {
				t.Fatalf("vertex %d: posting has %d ids, count says %d", v, len(ids), db.CliqueCount(v))
			}
			for _, id := range ids {
				found := false
				for _, m := range cliques[id] {
					if m == v {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("vertex %d posting names clique %d which does not contain it", v, id)
				}
			}
		}
		top := db.AppendTopK(nil, db.NumCliques())
		for i := 1; i < len(top); i++ {
			a, b := db.CliqueSize(top[i-1]), db.CliqueSize(top[i])
			if a < b {
				t.Fatalf("top-k not size-ordered at %d", i)
			}
		}
		// A verified image must round-trip: rebuilding from its own cliques
		// reproduces the identical bytes (determinism underwrites the
		// self-healing byte-identity guarantee).
		again, _, err := encode(cliques)
		if err != nil {
			t.Fatalf("re-encode of verified DB failed: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("verified image is not the canonical encoding of its own content")
		}
	})
}

// fuzzFamily maps bytes to a clique family built to stress the canonical
// sort. data[0] picks a member stride (1 to 256, so key ranges run from
// dense to far sparser than a bucket). Every following 3-byte record
// ctl, lo, hi is one clique whose members are stride times the set bits of
// the 16-bit mask lo|hi<<8 — few distinct first members, so large buckets
// share long prefixes. ctl additionally emits the clique's longest proper
// prefix (bit 0, a prefix pair such as {1,2} and {1,2,3}), an exact
// duplicate (bit 1) and the single-member clique of its first member
// (bit 2). The largest member is always at nVerts-1 by construction.
func fuzzFamily(data []byte) [][]int32 {
	if len(data) == 0 {
		return nil
	}
	stride := int32(1) << (data[0] % 9)
	var family [][]int32
	for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
		ctl, mask := rec[0], uint16(rec[1])|uint16(rec[2])<<8
		var c []int32
		for bit := int32(0); bit < 16; bit++ {
			if mask&(1<<bit) != 0 {
				c = append(c, bit*stride)
			}
		}
		if len(c) == 0 {
			continue
		}
		family = append(family, c)
		if ctl&1 != 0 && len(c) > 1 {
			family = append(family, c[:len(c)-1])
		}
		if ctl&2 != 0 {
			family = append(family, slices.Clone(c))
		}
		if ctl&4 != 0 {
			family = append(family, c[:1])
		}
	}
	return family
}

// FuzzBuildRoundTrip differentially tests the compiler's radix canonical
// order and counting-sort SIZE permutation against comparison-sort oracles:
// whatever family the bytes describe, the compiled image must open, hold
// exactly the sorted, deduplicated family in that order, and list clique
// IDs in the stable (size desc) order.
func FuzzBuildRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 0x07, 0, 3, 0x03, 0, 7, 0x00, 0x80, 0x00})
	rng := rand.New(rand.NewSource(1))
	for _, stride := range []byte{0, 3, 8} {
		seed := []byte{stride}
		for i := 0; i < 150; i++ {
			seed = append(seed, byte(rng.Intn(8)), byte(rng.Intn(256)), byte(rng.Intn(4)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		family := fuzzFamily(data)
		image, st, err := encode(family)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		db, err := openBytes(image)
		if err != nil {
			t.Fatalf("openBytes rejected a fresh image: %v", err)
		}
		want := slices.Clone(family)
		slices.SortFunc(want, slices.Compare)
		want = slices.CompactFunc(want, slices.Equal)
		got := db.Cliques()
		if st.Cliques != len(want) || !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("index holds %v, want %v", got, want)
		}
		order := make([]uint32, len(want))
		for i := range order {
			order[i] = uint32(i)
		}
		slices.SortStableFunc(order, func(a, b uint32) int { return cmp.Compare(len(want[b]), len(want[a])) })
		if top := db.AppendTopK(nil, len(want)); !slices.Equal(top, order) {
			t.Fatalf("SIZE order %v, want %v", top, order)
		}
	})
}
