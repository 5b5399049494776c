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

import "math"

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
	if cs.epoch == 0 { // epoch wrapped: stale marks could alias, clear once
		clear(cs.marks)
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
	buckets map[uint32]*indexBucket
	exact   map[exactKey][]int32
}

// IndexEntry is one digest to index under a caller-assigned id. Ids are
// dense and start at 0 — they size the CandidateSet mark table.
type IndexEntry struct {
	ID     int32
	Digest PreparedDigest
}

// indexBucket holds one block size's inverted gram postings, one set per
// signature slot.
type indexBucket struct {
	s1 postings // grams of clamped Sig1 → ids
	s2 postings // grams of clamped Sig2 → ids
}

// postings is an inverted gram index in flat, pointer-free form: every
// distinct gram is interned to a dense number, and gram number n's ids are
// ids[offs[n]:offs[n+1]] (compressed sparse rows). Neither the map (integer
// keys and values) nor the two slices hold pointers, so the garbage
// collector never scans a posting, however large the catalogue.
type postings struct {
	nums map[uint64]uint32
	offs []uint32
	ids  []int32
}

type exactKey struct {
	bs     uint32
	s1, s2 string
}

// gramPair is one posting awaiting placement: the id of an entry whose
// signature contains gram number num.
type gramPair struct {
	num uint32
	id  int32
}

// gramState is the build-time state of one interned gram.
type gramState struct {
	n    uint32 // postings emitted for the gram
	last int32  // ordinal of the last entry that posted it, plus one
}

// buildPostings inverts one signature slot (sig picks it) of the entries
// whose ordinals are in members. Postings are first emitted as (gram number,
// id) pairs into an exactly pre-sized buffer, then laid out by a counting
// sort on the gram number — a handful of large pointer-free blocks, where a
// slice per gram would be one small allocation and one read-then-append per
// posting. A gram occurring more than once in a signature posts its id once,
// so every row is duplicate-free.
func buildPostings(entries []IndexEntry, members []int32, sig func(*PreparedDigest) string) postings {
	want := 0
	for _, ord := range members {
		want += max(0, len(sig(&entries[ord].Digest))-GramSize+1)
	}
	if uint64(want) > math.MaxUint32 {
		panic("ssdeep: more than 2³² postings in one index bucket")
	}
	nums := make(map[uint64]uint32)
	var grams []gramState
	pairs := make([]gramPair, 0, want)
	var windows []uint64
	for _, ord := range members {
		e := &entries[ord]
		windows = AppendGrams(windows[:0], sig(&e.Digest))
		for _, g := range windows {
			num, ok := nums[g]
			if !ok {
				num = uint32(len(grams))
				nums[g] = num
				grams = append(grams, gramState{})
			}
			st := &grams[num]
			if st.last == ord+1 {
				continue
			}
			st.last = ord + 1
			st.n++
			pairs = append(pairs, gramPair{num: num, id: e.ID})
		}
	}

	offs := make([]uint32, len(grams)+1)
	for num, st := range grams {
		offs[num+1] = offs[num] + st.n
	}
	ids := make([]int32, len(pairs))
	for _, p := range pairs {
		st := &grams[p.num]
		ids[offs[p.num+1]-st.n] = p.id // st.n counts the row's unplaced ids
		st.n--
	}
	return postings{nums: nums, offs: offs, ids: ids}
}

// NewIndex builds the index over entries, which it only reads. Entries are
// grouped by block size first and each bucket's two signature slots are
// inverted one after the other, so one gram table at a time is hot.
func NewIndex(entries []IndexEntry) *Index {
	members := make(map[uint32][]int32) // block size → entry ordinals
	exact := make(map[exactKey][]int32)
	for i := range entries {
		p := &entries[i].Digest
		members[p.BlockSize] = append(members[p.BlockSize], int32(i))
		// An equal digest with a signature of gram length or more is already
		// found through that signature's first gram; only digests too short
		// to post any gram need the table.
		if len(p.S1) < GramSize && len(p.S2) < GramSize {
			k := exactKey{bs: p.BlockSize, s1: p.S1, s2: p.S2}
			exact[k] = append(exact[k], entries[i].ID)
		}
	}
	buckets := make(map[uint32]*indexBucket, len(members))
	for bs, m := range members {
		buckets[bs] = &indexBucket{
			s1: buildPostings(entries, m, func(p *PreparedDigest) string { return p.S1 }),
			s2: buildPostings(entries, m, func(p *PreparedDigest) string { return p.S2 }),
		}
	}
	return &Index{buckets: buckets, exact: exact}
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
	grams := AppendGrams(set.grams[:0], q.S1)
	if b := ix.buckets[q.BlockSize]; b != nil {
		b.s1.probe(grams, set)
	}
	if q.BlockSize%2 == 0 {
		// e.BlockSize*2 == q.BlockSize in uint32 arithmetic has two
		// solutions: q/2 and q/2 + 2³¹ (the doubling wraps).
		for _, hb := range [2]uint32{q.BlockSize / 2, q.BlockSize/2 + 1<<31} {
			if b := ix.buckets[hb]; b != nil {
				b.s2.probe(grams, set)
			}
		}
	}
	// Query Sig2 is compared against Sig2 at equal block size and against
	// Sig1 of double-block-size entries (uint32 wrap included).
	grams = AppendGrams(grams[:0], q.S2)
	if b := ix.buckets[q.BlockSize]; b != nil {
		b.s2.probe(grams, set)
	}
	if b := ix.buckets[q.BlockSize*2]; b != nil {
		b.s1.probe(grams, set)
	}
	set.grams = grams
}

// probe adds the ids posted under any of grams to set.
func (p *postings) probe(grams []uint64, set *CandidateSet) {
	if len(p.nums) == 0 {
		return
	}
	for _, g := range grams {
		if num, ok := p.nums[g]; ok {
			for _, id := range p.ids[p.offs[num]:p.offs[num+1]] {
				set.add(id)
			}
		}
	}
}
