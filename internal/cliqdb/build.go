package cliqdb

// The offline compiler: cliqstore segments (or an in-memory clique family)
// in, one verified index file out. The compile is deterministic — cliques
// are sorted into canonical order and duplicates dropped, so the same
// segment set always produces byte-identical output — and atomic: the
// index is assembled in memory, written to a temp file in the destination
// directory, fsynced, then renamed over the live name. A crash at any
// point leaves either the previous index or the new one, never a torn
// file; the SIGKILL chaos suite (chaos_compile_test.go) kills compiles at
// randomized points to hold the compiler to that.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"mce/internal/cliqstore"
	"mce/internal/runlog"
)

// compileThrottle, when non-nil, is called at encode and write batch
// boundaries. It exists for the chaos suite: the re-execed child installs a
// sleep here so the parent's SIGKILL reliably lands mid-compile. Production
// code never sets it.
var compileThrottle func()

// throttleEvery is how many cliques (encode) or bytes (write) pass between
// compileThrottle calls.
const (
	throttleCliques = 512
	writeChunk      = 64 << 10
)

// BuildStats describes one compiled index.
type BuildStats struct {
	// Cliques is the number of cliques in the index after deduplication.
	Cliques int
	// Vertices is the vertex ID space (max member + 1).
	Vertices int32
	// Bytes is the size of the index file.
	Bytes int64
	// Digest is the content digest sealed into the header.
	Digest uint32
}

// CompileSegments compiles every cliqstore segment under segDir into an
// index at path. Each segment must verify against its own trailer; a
// truncated or corrupt segment fails the compile — the segments are the
// authoritative source and a bad one must be re-derived by re-running the
// enumeration, not papered over.
//
// The segments must hold the run's final clique family in the graph's own
// vertex IDs — the directory mcefind -index-out writes beside the index.
// A run checkpoint's segment directory is NOT that: its segments are
// resume state (level-local IDs, pre-Lemma-1-filter), and compiling them
// would serve wrong cliques under wrong labels, so it is refused.
func CompileSegments(segDir, path string) (*BuildStats, error) {
	if err := CheckServingSegments(segDir); err != nil {
		return nil, err
	}
	// Every clique lands in one member arena; the walk records where each
	// ends, and the cliques are sub-sliced out of the arena once it stops
	// growing.
	var (
		arena []int32
		ends  []int
	)
	if _, err := cliqstore.WalkDir(segDir, func(c []int32) error {
		arena = append(arena, c...)
		ends = append(ends, len(arena))
		return nil
	}); err != nil {
		return nil, fmt.Errorf("cliqdb: compile: %w", err)
	}
	cliques := make([][]int32, len(ends))
	start := 0
	for i, end := range ends {
		cliques[i] = arena[start:end:end]
		start = end
	}
	return Build(cliques, path)
}

// CheckServingSegments rejects segment directories that cannot back a
// serving index — today, a run checkpoint's segment directory (see
// CompileSegments). mced runs this at startup so a misconfigured -segments
// fails the daemon immediately instead of at the first self-heal.
func CheckServingSegments(segDir string) error {
	if runlog.IsCheckpointSegmentDir(segDir) {
		return fmt.Errorf("cliqdb: %s is a run checkpoint's segment directory, which holds per-level resume state rather than the final clique family; point at the <index>.segments directory mcefind -index-out writes", segDir)
	}
	return nil
}

// Build compiles an in-memory clique family into an index at path. The
// input is not mutated: cliques are copied into canonical order
// (lexicographic over ascending members) with exact duplicates removed.
// Every clique must have strictly ascending members in [0, 2^31-1).
func Build(cliques [][]int32, path string) (*BuildStats, error) {
	image, st, err := encode(cliques)
	if err != nil {
		return nil, err
	}
	if err := writeAtomic(path, image); err != nil {
		return nil, err
	}
	st.Bytes = int64(len(image))
	return st, nil
}

// encode assembles the full index image in memory. Every step is a linear
// pass or a counting sort: canonical order by MSD radix over members, the
// SIZE permutation by counting sort over clique size, postings through a
// flat CSR of clique IDs, and the content digest hashed in bulk.
func encode(cliques [][]int32) ([]byte, *BuildStats, error) {
	var (
		nVerts  int32
		members int
		maxSize int
	)
	for _, c := range cliques {
		if len(c) == 0 {
			return nil, nil, fmt.Errorf("cliqdb: empty clique")
		}
		prev := int32(-1)
		for _, v := range c {
			if v <= prev || v == math.MaxInt32 {
				return nil, nil, fmt.Errorf("cliqdb: clique %v not strictly ascending and inside [0, 2^31-1)", c)
			}
			prev = v
		}
		if c[len(c)-1] >= nVerts {
			nVerts = c[len(c)-1] + 1
		}
		members += len(c)
		maxSize = max(maxSize, len(c))
	}

	kept := make([][]int32, len(cliques))
	copy(kept, cliques)
	sortCanonical(kept)
	kept = slices.CompactFunc(kept, slices.Equal[[]int32]) // sorting made duplicates adjacent
	n := len(kept)
	if uint64(n) > 1<<31 {
		return nil, nil, fmt.Errorf("cliqdb: %d cliques exceeds the format limit of 2^31", n)
	}

	// CLIQ + COFF + per-vertex posting counts + per-size clique counts +
	// content digest, one pass.
	var (
		cliq    = make([]byte, 0, n+members) // one byte per varint while gaps stay under 128
		coff    = make([]byte, 0, (n+1)*4)
		counts  = make([]int, nVerts)
		bySize  = make([]uint32, maxSize+1)
		content digester
	)
	for id, c := range kept {
		coff = binary.LittleEndian.AppendUint32(coff, uint32(len(cliq)))
		cliq = binary.AppendUvarint(cliq, uint64(len(c)))
		prev := int32(0)
		for _, v := range c {
			cliq = binary.AppendUvarint(cliq, uint64(v-prev))
			prev = v
			counts[v]++
		}
		bySize[len(c)]++
		content.add(c)
		if compileThrottle != nil && id%throttleCliques == throttleCliques-1 {
			compileThrottle()
		}
	}
	// COFF/VOFF offsets are uint32; a section past 4 GiB would wrap them
	// silently and emit an index that can never verify, bricking
	// OpenOrRebuild's self-healing. Fail the compile loudly instead.
	if len(cliq) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("cliqdb: CLIQ section is %d bytes, past the 4 GiB uint32 offset limit", len(cliq))
	}
	coff = binary.LittleEndian.AppendUint32(coff, uint32(len(cliq)))
	digest := content.sum()

	// VPST + VOFF: prefix-sum the counts into a flat CSR of clique IDs,
	// fill it in ID order — so every vertex's run comes out ascending — and
	// delta-encode each run behind its count prefix. After the fill,
	// counts[v] is where vertex v's run ends.
	sum := 0
	for v, c := range counts {
		counts[v] = sum
		sum += c
	}
	csr := make([]uint32, sum)
	for id, c := range kept {
		for _, v := range c {
			csr[counts[v]] = uint32(id)
			counts[v]++
		}
	}
	vpst := make([]byte, 0, len(csr)+2*int(nVerts))
	voff := make([]byte, 0, (int(nVerts)+1)*4)
	lo := 0
	for _, hi := range counts {
		voff = binary.LittleEndian.AppendUint32(voff, uint32(len(vpst)))
		vpst = binary.AppendUvarint(vpst, uint64(hi-lo))
		last := uint32(0)
		for _, id := range csr[lo:hi] {
			vpst = binary.AppendUvarint(vpst, uint64(id-last))
			last = id
		}
		lo = hi
	}
	if len(vpst) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("cliqdb: VPST section is %d bytes, past the 4 GiB uint32 offset limit", len(vpst))
	}
	voff = binary.LittleEndian.AppendUint32(voff, uint32(len(vpst)))

	// SIZE: clique IDs by (size desc, id asc), a counting sort over size.
	// bySize[s] becomes the first SIZE slot of size-s cliques; placing IDs
	// in ascending order keeps each size's run ascending.
	var slot uint32
	for s := maxSize; s > 0; s-- {
		c := bySize[s]
		bySize[s] = slot
		slot += c
	}
	size := make([]byte, n*4)
	for id, c := range kept {
		binary.LittleEndian.PutUint32(size[bySize[len(c)]*4:], uint32(id))
		bySize[len(c)]++
	}

	meta := make([]byte, metaLen)
	binary.LittleEndian.PutUint32(meta[0:], formatVersion)
	binary.LittleEndian.PutUint32(meta[4:], uint32(nVerts))
	binary.LittleEndian.PutUint64(meta[8:], uint64(n))
	binary.LittleEndian.PutUint32(meta[16:], digest)

	// Frame the sections, then the footer, then the trailer, into an image
	// allocated once at its final size.
	sections := [...]struct {
		tag     [4]byte
		payload []byte
	}{{tagMeta, meta}, {tagCliq, cliq}, {tagCoff, coff}, {tagVpst, vpst}, {tagVoff, voff}, {tagSize, size}}
	const footEntry = 4 + 8 + 8 + 4
	footLen := 4 + len(sections)*footEntry
	total := len(headMagic) + frameOverhead + footLen + trailerLen
	for _, s := range sections {
		total += frameOverhead + len(s.payload)
	}
	image := make([]byte, 0, total)
	image = append(image, headMagic[:]...)
	foot := make([]byte, 0, footLen)
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(sections)))
	for _, s := range sections {
		sum := crc32.ChecksumIEEE(s.payload)
		foot = append(foot, s.tag[:]...)
		foot = binary.LittleEndian.AppendUint64(foot, uint64(len(image)))
		foot = binary.LittleEndian.AppendUint64(foot, uint64(len(s.payload)))
		foot = binary.LittleEndian.AppendUint32(foot, sum)
		image = appendFrame(image, s.tag, s.payload, sum)
	}
	footOff := uint64(len(image))
	image = appendFrame(image, tagFtr, foot, crc32.ChecksumIEEE(foot))
	image = binary.LittleEndian.AppendUint64(image, footOff)
	image = append(image, tailMagic[:]...)

	return image, &BuildStats{Cliques: n, Vertices: nVerts, Digest: digest}, nil
}

// appendFrame appends one tag/length/payload/CRC frame.
func appendFrame(dst []byte, tag [4]byte, payload []byte, sum uint32) []byte {
	dst = append(dst, tag[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// radixCutoff is the bucket size below which sortCanonical hands a bucket
// to a comparison sort, and radixSpread bounds how sparse a bucket's keys
// may be (key range over bucket size) before a counting pass costs more
// than the comparison sort it replaces.
const (
	radixCutoff = 16
	radixSpread = 8
)

// sortCanonical sorts cliques into canonical order — lexicographic over
// ascending members, shorter prefix first, which is exactly slices.Compare
// — by most-significant-digit radix sort: a counting pass keyed on member
// d splits a bucket of cliques sharing their first d members, then each
// sub-bucket recurses on member d+1. Members must be non-negative.
func sortCanonical(cliques [][]int32) {
	s := radixSorter{scratch: make([][]int32, len(cliques))}
	s.sort(cliques, 0)
}

// radixSorter holds the one scratch array and the one count array every
// level of the recursion shares.
type radixSorter struct {
	scratch [][]int32
	count   []int
}

// sort orders b, whose cliques all share their first d members.
func (s *radixSorter) sort(b [][]int32, d int) {
	if len(b) < 2 {
		return
	}
	lo, hi, ended := int32(math.MaxInt32), int32(-1), 0
	if len(b) >= radixCutoff {
		for _, c := range b {
			if len(c) == d {
				ended++
				continue
			}
			lo, hi = min(lo, c[d]), max(hi, c[d])
		}
	}
	if len(b) < radixCutoff || int(hi)-int(lo) >= len(b)*radixSpread {
		slices.SortFunc(b, func(x, y []int32) int { return slices.Compare(x[d:], y[d:]) })
		return
	}
	if hi < 0 {
		return // every clique ends at d: all equal
	}
	// count[0] is the cliques that end at depth d — a proper prefix of the
	// rest of the bucket, so they go first; count[1+k-lo] is key k.
	keys := int(hi-lo) + 2
	if cap(s.count) < keys {
		s.count = make([]int, keys)
	}
	count := s.count[:keys]
	count[0] = ended
	for _, c := range b {
		if len(c) > d {
			count[1+c[d]-lo]++
		}
	}
	at := 0
	for k, c := range count {
		count[k] = at
		at += c
	}
	tmp := s.scratch[:len(b)]
	for _, c := range b {
		k := 0
		if len(c) > d {
			k = int(1 + c[d] - lo)
		}
		tmp[count[k]] = c
		count[k]++
	}
	copy(b, tmp)
	clear(count)
	for i := ended; i < len(b); {
		j := i + 1
		for j < len(b) && b[j][d] == b[i][d] {
			j++
		}
		s.sort(b[i:j], d+1)
		i = j
	}
}

// digestFlush is how many bytes digester gathers before each CRC update.
const digestFlush = 32 << 10

// digester computes cliqstore.Digest incrementally: each clique's
// little-endian size and members are appended to one buffer that is folded
// into the CRC in bulk. CRC-32 is a streaming function, so the chunking
// does not change the value.
type digester struct {
	crc uint32
	buf []byte
}

// add appends clique c to the digest.
func (d *digester) add(c []int32) {
	if d.buf == nil {
		d.buf = make([]byte, 0, 2*digestFlush)
	}
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(len(c)))
	for _, v := range c {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(v))
	}
	if len(d.buf) >= digestFlush {
		d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf)
		d.buf = d.buf[:0]
	}
}

// sum returns the digest of every clique added so far.
func (d *digester) sum() uint32 {
	return crc32.Update(d.crc, crc32.IEEETable, d.buf)
}

// writeAtomic lands the index image under path via temp + fsync + rename,
// writing in bounded chunks (with the chaos throttle between them) so a
// kill mid-write is exercised against a partially written temp file, never
// a partially written live index.
func writeAtomic(path string, image []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("cliqdb: write index: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cliqdb: write index: %w", err)
	}
	for off := 0; off < len(image); off += writeChunk {
		end := off + writeChunk
		if end > len(image) {
			end = len(image)
		}
		if _, err := f.Write(image[off:end]); err != nil {
			return fail(err)
		}
		if compileThrottle != nil {
			compileThrottle()
		}
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cliqdb: write index: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cliqdb: write index: %w", err)
	}
	return nil
}
