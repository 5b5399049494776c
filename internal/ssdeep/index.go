// Sub-linear candidate pruning over fuzzy-hash digests — the shared search
// engine behind analysis.FingerprintIndex.
//
// The engine exploits two structural preconditions of the ssdeep score
// (CompareDigests): a pair of digests can score nonzero only when
//
//  1. their block sizes are comparable — equal, or one double the other
//     (in the comparison's uint32 arithmetic), and
//  2. either both run-clamped signatures are equal at equal block size
//     (the score-100 shortcut), or the pair of signatures actually compared
//     shares a contiguous substring of at least GramSize (7) bytes — the
//     HasCommonSubstring gate inside scoreStrings.
//
// Entries are therefore bucketed by block size, and within a bucket every
// GramSize-byte window ("gram") of each clamped signature is posted in an
// inverted index. A query unions the posting lists of its own grams across
// the comparable buckets — probing Sig1 grams against the signature slot its
// Sig1 would be compared with, and likewise Sig2 — plus an exact-signature
// table for the equality shortcut, which fires even between digests whose
// signatures are both shorter than a gram (any longer equal signature is
// found by its grams). Everything the probe does not return provably scores
// zero, so scoring only touches returned candidates and results stay
// byte-identical to an exhaustive scan.
package ssdeep

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"unsafe"
)

// GramSize is the pruning n-gram width: the rolling-hash window length,
// which is also the minimum common-substring length scoreStrings requires
// for a nonzero score.
const GramSize = rollingWindow

const gramMask = 1<<(8*GramSize) - 1

// PreparedDigest is a parsed digest in comparison-ready form: its signatures
// have the run-length clamp (eliminateSequences) already applied, so
// repeated comparisons and gram extraction skip that pre-pass.
type PreparedDigest struct {
	BlockSize uint32
	S1, S2    string // clamped signatures
}

// PrepareDigest clamps a parsed digest's signatures for comparison.
func PrepareDigest(d Digest) PreparedDigest {
	return PreparedDigest{
		BlockSize: d.BlockSize,
		S1:        eliminateSequences(d.Sig1),
		S2:        eliminateSequences(d.Sig2),
	}
}

// ParsePrepared parses a digest string straight into prepared form.
func ParsePrepared(s string) (PreparedDigest, error) {
	d, err := ParseDigest(s)
	if err != nil {
		return PreparedDigest{}, err
	}
	return PrepareDigest(d), nil
}

// ComparePrepared scores two prepared digests, identically to CompareDigests
// on the corresponding parsed digests. It builds a Scorer for p1 and scores
// p2; callers comparing one digest against many keep the Scorer instead.
func ComparePrepared(p1, p2 PreparedDigest, backend Backend) int {
	var sc Scorer
	sc.Reset(p1)
	return sc.Score(p2, backend)
}

// AppendGrams appends every GramSize-byte window of s, packed big-endian
// into a uint64, to dst and returns the extended slice. Strings shorter than
// GramSize contribute nothing.
func AppendGrams(dst []uint64, s string) []uint64 {
	if len(s) < GramSize {
		return dst
	}
	var g uint64
	for i := 0; i < GramSize-1; i++ {
		g = g<<8 | uint64(s[i])
	}
	for i := GramSize - 1; i < len(s); i++ {
		g = (g<<8 | uint64(s[i])) & gramMask
		dst = append(dst, g)
	}
	return dst
}

// CandidateSet collects the deduplicated candidate ids of one query across
// any number of Index probes. It is reusable scratch: Reset starts a new
// query without reallocating (an epoch counter makes clearing O(1)), so a
// pooled CandidateSet gives allocation-free candidate collection in steady
// state. A CandidateSet must not be used concurrently.
type CandidateSet struct {
	// IDs are the candidates collected since the last Reset, in probe order
	// (not sorted), each id at most once.
	IDs []int32

	marks []uint32
	epoch uint32
	grams []uint64
}

// Reset prepares the set for a query over an id space of size n
// (ids 0..n-1).
func (cs *CandidateSet) Reset(n int) {
	if cap(cs.marks) < n {
		cs.marks = make([]uint32, n)
		cs.epoch = 0
	}
	cs.marks = cs.marks[:n]
	cs.epoch++
	if cs.epoch == 0 {
		// The epoch wrapped: every old mark could alias a coming epoch. Marks
		// past n count too — a later Reset with a larger n re-slices over them.
		clear(cs.marks[:cap(cs.marks)])
		cs.epoch = 1
	}
	cs.IDs = cs.IDs[:0]
}

func (cs *CandidateSet) add(id int32) {
	if cs.marks[id] != cs.epoch {
		cs.marks[id] = cs.epoch
		cs.IDs = append(cs.IDs, id)
	}
}

// Index is the candidate-pruning index over one digest population. It is
// built in one shot by NewIndex and has no mutable state afterwards, so any
// number of goroutines may call Candidates concurrently.
type Index struct {
	// mul is this build's gram multiplier: random and odd, so gram·mul is a
	// bijection on uint64 that an input cannot aim at one slot (see postings).
	mul     uint64
	buckets []indexBucket // ascending block size
	exact   map[exactKey][]int32
	size    IndexSize
}

// IndexEntry is one digest to index under a caller-assigned id. Ids are
// dense, start at 0 and are distinct — they size the CandidateSet mark table.
type IndexEntry struct {
	ID     int32
	Digest PreparedDigest
}

// indexBucket holds one block size's inverted gram postings, one set per
// signature slot.
type indexBucket struct {
	bs uint32
	s1 postings // grams of clamped Sig1 → ids
	s2 postings // grams of clamped Sig2 → ids
}

// postings is an inverted gram index in flat, pointer-free form: an
// open-addressed table of gram slots over one array of ids. A gram is stored
// as its key, gram·mul; the key's home slot is ⌊key·homes / 2⁶⁴⌋, and a slot
// holds the key with its row bounds, so a probe reads the one or two slots
// from the home onwards — one cache line — and then the ids. The table is
// laid out from keys in ascending order, each placed at the first free slot
// at or after its home, so a run of occupied slots holds ascending keys and a
// probe stops at the first key not below its own. Homes number 4/3 of the
// distinct grams (load 3/4); the slice runs past them by whatever the last
// run spilled plus one empty sentinel, so no probe wraps around. Neither
// slice holds a pointer: the garbage collector never scans a posting,
// however large the catalogue.
type postings struct {
	slots []gramSlot
	ids   []int32
	homes uint64
}

// gramSlot is one slot of the table: a gram's key and its row, ids[lo:hi].
// An empty slot holds emptySlot, whose key is the largest possible: probes
// stop at it, and a probe for that key itself reads an empty row.
type gramSlot struct {
	key    uint64
	lo, hi uint32
}

var emptySlot = gramSlot{key: math.MaxUint64}

func (p *postings) home(key uint64) uint64 {
	h, _ := bits.Mul64(key, p.homes)
	return h
}

type exactKey struct {
	bs     uint32
	s1, s2 string
}

// posting is one (key, id) pair awaiting layout.
type posting struct {
	key uint64
	id  int32
}

// indexBuilder holds what one NewIndex reuses across all of its buckets and
// both signature slots: the emission and sort buffers, sized once for the
// largest, and the running size.
type indexBuilder struct {
	mul      uint64
	buf, tmp []posting
	grams    []uint64
	size     IndexSize
}

// postingCount is the number of gram windows sig has across members.
func postingCount(entries []IndexEntry, members []int32, sig func(*PreparedDigest) string) int {
	n := 0
	for _, ord := range members {
		n += max(0, len(sig(&entries[ord].Digest))-GramSize+1)
	}
	return n
}

// postings inverts one signature slot (sig picks it) of the entries whose
// ordinals are in members. Every (key, id) posting is emitted into the
// builder's buffer, radix-sorted by key and deduplicated — a gram occurring
// more than once in a signature posts its id once — and the distinct keys
// are laid out into a table sized from their exact count: two allocations
// whatever the posting count.
func (ib *indexBuilder) postings(entries []IndexEntry, members []int32, sig func(*PreparedDigest) string) postings {
	want := postingCount(entries, members, sig)
	if want == 0 {
		return postings{}
	}
	buf := ib.buf[:0]
	for _, ord := range members {
		e := &entries[ord]
		ib.grams = AppendGrams(ib.grams[:0], sig(&e.Digest))
		for _, g := range ib.grams {
			buf = append(buf, posting{key: g * ib.mul, id: e.ID})
		}
	}
	radixSort(buf, ib.tmp, 56)

	// Deduplicate in place: the first grams entries of buf become the
	// distinct keys, each with the offset of its row in ids. A repeat of one
	// entry's id under one key is adjacent (the sort is stable and an entry's
	// postings were emitted together), so rows come out duplicate-free and in
	// member order.
	ids := make([]int32, len(buf))
	grams, n := 0, 0
	var prev posting
	for i, q := range buf {
		if i > 0 && q.key == prev.key {
			if q.id == prev.id {
				continue
			}
		} else {
			buf[grams] = posting{key: q.key, id: int32(n)}
			grams++
		}
		prev = q
		ids[n] = q.id
		n++
	}
	if n < len(ids) { // a gram repeated inside a signature
		ids = slices.Clone(ids[:n])
	}
	p := postings{ids: ids, homes: uint64(grams) + uint64(grams)/3 + 1}
	keys := buf[:grams]
	end := uint64(0) // one past the last occupied slot
	for _, k := range keys {
		end = max(end, p.home(k.key)) + 1
	}
	p.slots = make([]gramSlot, max(end, p.homes)+1)
	at := uint64(0)
	for i, k := range keys {
		for h := p.home(k.key); at < h; at++ {
			p.slots[at] = emptySlot
		}
		hi := uint32(n)
		if i+1 < len(keys) {
			hi = uint32(keys[i+1].id)
		}
		p.slots[at] = gramSlot{key: k.key, lo: uint32(k.id), hi: hi}
		at++
	}
	for ; at < uint64(len(p.slots)); at++ {
		p.slots[at] = emptySlot
	}
	ib.size.Add(IndexSize{
		Grams:    grams,
		Postings: n,
		Bytes:    int64(len(p.slots))*int64(unsafe.Sizeof(gramSlot{})) + int64(n)*int64(unsafe.Sizeof(int32(0))),
	})
	return p
}

// insertionMax is the run length below which radixSort finishes with an
// insertion sort: shorter than a histogram pass is worth.
const insertionMax = 32

// radixSort sorts a by key, stably, with scratch (at least as long as a) as
// the scatter target. It counts and scatters on the key byte at shift, then
// sorts each bucket on the next byte down, most significant first; a byte
// every key shares is skipped without a scatter. Each level is one linear
// pass and there are at most eight, so the sort stays linear whatever the
// keys — all equal included — and on random keys two levels leave runs of a
// posting or two.
func radixSort(a, scratch []posting, shift uint) {
	if len(a) > insertionMax && a[0].key == a[len(a)-1].key {
		i := 1
		for i < len(a) && a[i].key == a[0].key {
			i++
		}
		if i == len(a) {
			return // one gram in every posting: the emission order stands
		}
	}
	for len(a) > insertionMax {
		var count [256]int
		for _, q := range a {
			count[byte(q.key>>shift)]++
		}
		if count[byte(a[0].key>>shift)] < len(a) {
			next, at := count, 0
			for d, c := range count {
				next[d] = at
				at += c
			}
			b := scratch[:len(a)]
			for _, q := range a {
				d := byte(q.key >> shift)
				b[next[d]] = q
				next[d]++
			}
			copy(a, b)
			if shift == 0 {
				return
			}
			lo := 0
			for _, c := range count {
				switch {
				case c > insertionMax:
					radixSort(a[lo:lo+c], scratch[lo:lo+c], shift-8)
				case c > 1:
					insertionSort(a[lo : lo+c])
				}
				lo += c
			}
			return
		}
		if shift == 0 {
			return // every key equal
		}
		shift -= 8
	}
	insertionSort(a)
}

// insertionSort sorts a short run by key, stably.
func insertionSort(a []posting) {
	for i := 1; i < len(a); i++ {
		q := a[i]
		j := i
		for ; j > 0 && a[j-1].key > q.key; j-- {
			a[j] = a[j-1]
		}
		a[j] = q
	}
}

// NewIndex builds the index over entries, which it only reads. Entries are
// grouped by block size first and each bucket's two signature slots are
// inverted one after the other through one reused scratch buffer. Each build
// draws its own gram multiplier.
func NewIndex(entries []IndexEntry) *Index {
	ix := &Index{exact: make(map[exactKey][]int32)}
	ords := make([]int32, len(entries))
	for i := range ords {
		ords[i] = int32(i)
		p := &entries[i].Digest
		// An equal digest with a signature of gram length or more is already
		// found through that signature's first gram; only digests too short
		// to post any gram need the table.
		if len(p.S1) < GramSize && len(p.S2) < GramSize {
			k := exactKey{bs: p.BlockSize, s1: p.S1, s2: p.S2}
			ix.exact[k] = append(ix.exact[k], entries[i].ID)
		}
	}
	blockSize := func(ord int32) uint32 { return entries[ord].Digest.BlockSize }
	slices.SortFunc(ords, func(a, b int32) int { return cmp.Or(cmp.Compare(blockSize(a), blockSize(b)), cmp.Compare(a, b)) })
	s1 := func(p *PreparedDigest) string { return p.S1 }
	s2 := func(p *PreparedDigest) string { return p.S2 }
	var runs [][]int32 // the entry ordinals of each block size
	most := 0
	for lo := 0; lo < len(ords); {
		hi := lo + 1
		for hi < len(ords) && blockSize(ords[hi]) == blockSize(ords[lo]) {
			hi++
		}
		m := ords[lo:hi]
		runs = append(runs, m)
		most = max(most, postingCount(entries, m, s1), postingCount(entries, m, s2))
		lo = hi
	}
	if most > math.MaxInt32 {
		panic("ssdeep: more than 2³¹ postings in one index bucket")
	}
	ib := indexBuilder{mul: rand.Uint64() | 1, buf: make([]posting, most), tmp: make([]posting, most)}
	ix.buckets = make([]indexBucket, len(runs))
	for i, m := range runs {
		ix.buckets[i] = indexBucket{bs: blockSize(m[0]), s1: ib.postings(entries, m, s1), s2: ib.postings(entries, m, s2)}
	}
	ix.mul, ix.size = ib.mul, ib.size
	return ix
}

// bucket returns the bucket of block size bs, or nil.
func (ix *Index) bucket(bs uint32) *indexBucket {
	i, ok := slices.BinarySearchFunc(ix.buckets, bs, func(b indexBucket, bs uint32) int { return cmp.Compare(b.bs, bs) })
	if !ok {
		return nil
	}
	return &ix.buckets[i]
}

// Candidates adds to set every entry that could score nonzero against q:
// the gram-less exact-signature matches at q's block size, plus every entry
// of a comparable bucket sharing at least one gram with the signature q
// would be compared against. The comparability arithmetic mirrors
// ComparePrepared's uint32 semantics exactly, including wrap-around doubles.
func (ix *Index) Candidates(q PreparedDigest, set *CandidateSet) {
	for _, id := range ix.exact[exactKey{bs: q.BlockSize, s1: q.S1, s2: q.S2}] {
		set.add(id)
	}
	// Query Sig1 is compared against Sig1 of equal-block-size entries and
	// against Sig2 of entries whose block size doubles to the query's.
	keys := ix.keys(set.grams[:0], q.S1)
	if b := ix.bucket(q.BlockSize); b != nil {
		b.s1.probe(keys, set)
	}
	if q.BlockSize%2 == 0 {
		// e.BlockSize*2 == q.BlockSize in uint32 arithmetic has two
		// solutions: q/2 and q/2 + 2³¹ (the doubling wraps).
		for _, hb := range [2]uint32{q.BlockSize / 2, q.BlockSize/2 + 1<<31} {
			if b := ix.bucket(hb); b != nil {
				b.s2.probe(keys, set)
			}
		}
	}
	// Query Sig2 is compared against Sig2 at equal block size and against
	// Sig1 of double-block-size entries (uint32 wrap included).
	keys = ix.keys(keys[:0], q.S2)
	if b := ix.bucket(q.BlockSize); b != nil {
		b.s2.probe(keys, set)
	}
	if b := ix.bucket(q.BlockSize * 2); b != nil {
		b.s1.probe(keys, set)
	}
	set.grams = keys
}

// keys appends the keys of s's grams under this index's multiplier to dst.
func (ix *Index) keys(dst []uint64, s string) []uint64 {
	n := len(dst)
	dst = AppendGrams(dst, s)
	for i := n; i < len(dst); i++ {
		dst[i] *= ix.mul
	}
	return dst
}

// probe adds the ids posted under any of keys to set.
func (p *postings) probe(keys []uint64, set *CandidateSet) {
	for _, key := range keys {
		for _, id := range p.row(key) {
			set.add(id)
		}
	}
}

// row returns the ids posted under key: it walks from the key's home slot
// past the smaller keys of the run and stops at the first key not below its
// own (an empty slot included).
func (p *postings) row(key uint64) []int32 {
	if p.homes == 0 {
		return nil
	}
	i := p.home(key)
	for p.slots[i].key < key {
		i++
	}
	if s := &p.slots[i]; s.key == key {
		return p.ids[s.lo:s.hi]
	}
	return nil
}

// IndexSize is the footprint of an Index's posting tables.
type IndexSize struct {
	Grams    int   // distinct grams, summed over buckets and signature slots
	Postings int   // (gram, id) postings
	Bytes    int64 // bytes held by the gram slots and id rows
}

// Add accumulates o into s.
func (s *IndexSize) Add(o IndexSize) {
	s.Grams += o.Grams
	s.Postings += o.Postings
	s.Bytes += o.Bytes
}

// Size reports the footprint of the index's posting tables (the small
// exact-signature table of gram-less digests is not counted).
func (ix *Index) Size() IndexSize { return ix.size }
