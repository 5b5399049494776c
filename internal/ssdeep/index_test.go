// Tests of the shared candidate-pruning engine: prepared digests must score
// exactly as parsed ones, and Index.Candidates must return a superset of
// every entry scoring nonzero — the zero-score pruning guarantee
// analysis.FingerprintIndex stands on.
package ssdeep

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// randomDigestString synthesizes a parseable digest: block size from a
// spread of real and adversarial values, signatures over the base64
// alphabet, with occasional runs (to exercise the clamp) and occasional
// short or empty signatures.
func randomDigestString(rng *rand.Rand) string {
	blockSizes := []uint32{3, 6, 48, 96, 192, 384, 768, 1536, 3072,
		5,                                                     // odd, never produced by Hash: parseable nonetheless
		1 << 31, 1<<31 + 3, 1<<31 + 96, 2<<30 - 1, 4294967295} // wrap-around territory
	bs := blockSizes[rng.Intn(len(blockSizes))]
	sig := func(maxLen int) string {
		n := rng.Intn(maxLen + 1)
		var b strings.Builder
		for b.Len() < n {
			c := base64Chars[rng.Intn(64)]
			run := 1
			if rng.Intn(8) == 0 { // sprinkle runs to hit eliminateSequences
				run = 2 + rng.Intn(6)
			}
			for r := 0; r < run && b.Len() < n; r++ {
				b.WriteByte(c)
			}
		}
		return b.String()
	}
	return fmt.Sprintf("%d:%s:%s", bs, sig(spamsumLength), sig(spamsumLength/2))
}

// relatedDigests builds a family of digests sharing signature material, so
// gram postings actually collide: a base plus mutated/truncated variants at
// the same, half, and double block size.
func relatedDigests(rng *rand.Rand, n int) []string {
	base1 := make([]byte, spamsumLength)
	base2 := make([]byte, spamsumLength/2)
	for i := range base1 {
		base1[i] = base64Chars[rng.Intn(64)]
	}
	for i := range base2 {
		base2[i] = base64Chars[rng.Intn(64)]
	}
	bs := uint32(96 * (1 << rng.Intn(3)))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s1 := append([]byte(nil), base1...)
		s2 := append([]byte(nil), base2...)
		for m := rng.Intn(6); m >= 0; m-- {
			s1[rng.Intn(len(s1))] = base64Chars[rng.Intn(64)]
		}
		for m := rng.Intn(3); m >= 0; m-- {
			s2[rng.Intn(len(s2))] = base64Chars[rng.Intn(64)]
		}
		b := bs
		switch rng.Intn(4) {
		case 0:
			b = bs * 2
		case 1:
			b = bs / 2
		}
		out = append(out, fmt.Sprintf("%d:%s:%s", b, s1[:1+rng.Intn(len(s1))], s2[:1+rng.Intn(len(s2))]))
	}
	return out
}

func TestComparePreparedMatchesCompareDigests(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pop := relatedDigests(rng, 60)
	for i := 0; i < 120; i++ {
		pop = append(pop, randomDigestString(rng))
	}
	// Identical short-signature digests: the score-100 shortcut must fire
	// without any shared 7-gram.
	pop = append(pop, "3:ab:c", "3:ab:c", "3::", "96:abc:z")
	backends := []Backend{BackendWeighted, BackendDamerau, BackendLevenshtein}
	for i := range pop {
		for j := range pop {
			d1, err1 := ParseDigest(pop[i])
			d2, err2 := ParseDigest(pop[j])
			if err1 != nil || err2 != nil {
				t.Fatalf("synthesized unparseable digest: %v %v", err1, err2)
			}
			p1, p2 := PrepareDigest(d1), PrepareDigest(d2)
			for _, b := range backends {
				want := CompareDigests(d1, d2, b)
				if got := ComparePrepared(p1, p2, b); got != want {
					t.Fatalf("ComparePrepared(%q, %q, %v) = %d, CompareDigests = %d",
						pop[i], pop[j], b, got, want)
				}
			}
		}
	}
}

// refDistance is the textbook full-table DP for the backend's distance,
// written from the definitions and sharing nothing with editdist.
func refDistance(a, b string, backend Backend) int {
	sub := 1
	if backend == BackendWeighted {
		sub = 2
	}
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := sub
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			if backend == BackendDamerau && i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				d[i][j] = min(d[i][j], d[i-2][j-2]+1)
			}
		}
	}
	return d[len(a)][len(b)]
}

// refCompare is the comparison as it was before the bit-vector kernels:
// ComparePrepared's case analysis over a scoreStrings whose gate is a
// substring search and whose distance is refDistance.
func refCompare(p1, p2 PreparedDigest, backend Backend) int {
	score := func(s1, s2 string, bs uint32) int {
		if len(s1) > spamsumLength || len(s2) > spamsumLength {
			return 0
		}
		common := false
		for i := 0; i+rollingWindow <= len(s1) && !common; i++ {
			common = strings.Contains(s2, s1[i:i+rollingWindow])
		}
		if !common {
			return 0
		}
		sc := refDistance(s1, s2, backend) * spamsumLength / (len(s1) + len(s2))
		sc = 100 * sc / 64
		if sc >= 100 {
			return 0
		}
		sc = 100 - sc
		if bs >= (99+rollingWindow)/rollingWindow*blockMin {
			return sc
		}
		return min(sc, int(bs)/blockMin*min(len(s1), len(s2)))
	}
	bs1, bs2 := p1.BlockSize, p2.BlockSize
	switch {
	case bs1 == bs2 && p1.S1 == p2.S1 && p1.S2 == p2.S2:
		return 100
	case bs1 == bs2:
		return max(score(p1.S1, p2.S1, bs1), score(p1.S2, p2.S2, bs1*2))
	case bs1 == bs2*2:
		return score(p1.S1, p2.S2, bs1)
	case bs2 == bs1*2:
		return score(p1.S2, p2.S1, bs2)
	}
	return 0
}

// TestComparePreparedMatchesDPReference pins every score, for all three
// backends, to the DP-scored reference: index-versus-exhaustive equivalence
// runs the same kernel on both sides and cannot see a wrong one. The corpus
// is the benchmark's catalogue shape (bench/gen.go: all digests of a family
// mutated from one 64-letter base over a 32- or 64-letter alphabet, block
// sizes 192/384/768 so the ×2 pairings occur), digests of real buffers at
// graded mutation distances, the adversarial population of
// TestComparePreparedMatchesCompareDigests, and hand-written digests with a
// signature past the 64-byte cap.
func TestComparePreparedMatchesDPReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var pairs [][2]string

	benchShaped := func(base []byte, alphabet string) string {
		s1 := append([]byte(nil), base...)
		for m := 0; m < 4; m++ {
			s1[rng.Intn(len(s1))] = alphabet[rng.Intn(len(alphabet))]
		}
		s2 := append([]byte(nil), base[:32]...)
		for m := 0; m < 2; m++ {
			s2[rng.Intn(len(s2))] = alphabet[rng.Intn(len(alphabet))]
		}
		return fmt.Sprintf("%d:%s:%s", uint32(192)<<rng.Intn(3), s1, s2)
	}
	for _, alphabet := range []string{base64Chars[:32], base64Chars} {
		bases := make([][]byte, 40)
		for f := range bases {
			bases[f] = make([]byte, spamsumLength)
			for i := range bases[f] {
				bases[f][i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		for i := 0; i < 5000; i++ {
			f, g := rng.Intn(len(bases)), rng.Intn(len(bases))
			if i%8 != 0 {
				g = f // mostly family members: the pairs that pass the gate
			}
			pairs = append(pairs, [2]string{benchShaped(bases[f], alphabet), benchShaped(bases[g], alphabet)})
		}
	}

	var hashed []string
	for _, size := range []int{3000, 40000} {
		base := randomBlob(rng, size)
		for _, nmut := range []int{0, 1, 5, 20, 80, 300, 1000} {
			v := append([]byte(nil), base...)
			for i := 0; i < nmut; i++ {
				v[rng.Intn(len(v))] ^= byte(1 + rng.Intn(255))
			}
			// An insertion shifts everything after it: the digests differ by
			// an indel, not only by substitutions.
			at := rng.Intn(len(v))
			v = append(v[:at], append(randomBlob(rng, nmut), v[at:]...)...)
			hashed = append(hashed, mustHash(t, v))
		}
	}
	pop := append(relatedDigests(rng, 40), hashed...)
	for i := 0; i < 60; i++ {
		pop = append(pop, randomDigestString(rng))
	}
	long := strings.Repeat("ABCDEFGHIJKLM", 6) // 78 bytes, no run to clamp
	pop = append(pop, "192:"+long+":"+long[:32], "192:"+long[:64]+":"+long[:32], "384:"+long[:60]+":"+long, "3:ab:c", "3:ab:c")
	for _, a := range pop {
		for _, b := range pop {
			pairs = append(pairs, [2]string{a, b})
		}
	}

	nonzero := 0
	for _, pair := range pairs {
		p1, err1 := ParsePrepared(pair[0])
		p2, err2 := ParsePrepared(pair[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("synthesized unparseable digest: %v %v", err1, err2)
		}
		for _, b := range []Backend{BackendWeighted, BackendDamerau, BackendLevenshtein} {
			want := refCompare(p1, p2, b)
			if got := ComparePrepared(p1, p2, b); got != want {
				t.Fatalf("ComparePrepared(%q, %q, %v) = %d, DP reference %d", pair[0], pair[1], b, got, want)
			}
			if want > 0 && want < 100 {
				nonzero++
			}
		}
	}
	if nonzero < 15000 {
		t.Fatalf("only %d of %d pair×backend scores are strictly between 0 and 100: the corpus no longer exercises the distances", nonzero, 3*len(pairs))
	}
}

func TestAppendGrams(t *testing.T) {
	if g := AppendGrams(nil, "abcdef"); len(g) != 0 {
		t.Errorf("grams of 6-byte string = %v, want none", g)
	}
	g := AppendGrams(nil, "abcdefgh")
	if len(g) != 2 {
		t.Fatalf("grams of 8-byte string = %d, want 2", len(g))
	}
	pack := func(s string) uint64 {
		var v uint64
		for i := 0; i < len(s); i++ {
			v = v<<8 | uint64(s[i])
		}
		return v
	}
	if g[0] != pack("abcdefg") || g[1] != pack("bcdefgh") {
		t.Errorf("grams = %x, want packed windows", g)
	}
	// Appending reuses dst.
	g2 := AppendGrams(g[:0], "abcdefg")
	if len(g2) != 1 || g2[0] != pack("abcdefg") {
		t.Errorf("reused dst grams = %x", g2)
	}
}

// TestIndexCandidatesCoverNonzeroScores is the pruning-soundness property:
// for a mixed population (related families, random digests, short and
// adversarial block sizes) and arbitrary queries, every entry with a nonzero
// ComparePrepared score must appear in Candidates' output.
func TestIndexCandidatesCoverNonzeroScores(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var pop []string
	pop = append(pop, relatedDigests(rng, 120)...)
	for i := 0; i < 250; i++ {
		pop = append(pop, randomDigestString(rng))
	}
	pop = append(pop, "3:ab:c", "3:ab:c", "3::", "6:abc:ab",
		// Wrap-around pairs: (3 + 2³¹) * 2 == 6 in uint32 arithmetic, so a
		// query with block size 6 must probe this bucket too.
		fmt.Sprintf("%d:%s:%s", uint32(3)+1<<31, "AAAABBBBCCCCDDDD", "kkkkllll"),
		fmt.Sprintf("%d:%s:%s", uint32(3)+1<<31, "ABCDEFGHIJKL", "MNOPQRSTUVWX"),
		// A signature repeating a 7-gram, twice so the row has two ids.
		"96:ABCDEFGABCDEFGH:ABCDEFGABCDEFG", "96:ABCDEFGABCDEFGH:zz",
	)

	prepared := make([]PreparedDigest, len(pop))
	entries := make([]IndexEntry, len(pop))
	for i, d := range pop {
		p, err := ParsePrepared(d)
		if err != nil {
			t.Fatalf("ParsePrepared(%q): %v", d, err)
		}
		prepared[i] = p
		entries[i] = IndexEntry{ID: int32(i), Digest: p}
	}
	ix := NewIndex(entries)

	queries := append([]string{}, pop[:80]...) // self-queries
	queries = append(queries, relatedDigests(rng, 40)...)
	for i := 0; i < 80; i++ {
		queries = append(queries, randomDigestString(rng))
	}
	queries = append(queries, "3:ab:c", "6:abcdefghijklm:zz",
		"6:kkkkllllXXXX:AAAABBBB", // sig2 sharing grams with the wrap entry's sig1
		"6:MNOPQRSTUVWX:zz",       // sig1 equal to the second wrap entry's sig2
		"96:xxABCDEFGxx:yy", "48:qq:ABCDEFGHxx")
	scored := 0

	var set CandidateSet
	for _, qs := range queries {
		q, err := ParsePrepared(qs)
		if err != nil {
			t.Fatalf("ParsePrepared(%q): %v", qs, err)
		}
		set.Reset(len(pop))
		ix.Candidates(q, &set)
		if len(set.IDs) != len(uniqueIDs(set.IDs)) {
			t.Fatalf("Candidates(%q) returned duplicate ids: %v", qs, set.IDs)
		}
		cand := make(map[int32]bool, len(set.IDs))
		for _, id := range set.IDs {
			cand[id] = true
		}
		for i := range prepared {
			score := ComparePrepared(q, prepared[i], BackendWeighted)
			if score > 0 && !cand[int32(i)] {
				t.Fatalf("query %q scores %d against entry %d (%q) but the index did not return it",
					qs, score, i, pop[i])
			}
			if score > 0 && strings.HasPrefix(qs, "6:MNOP") {
				scored++
			}
		}
	}
	if scored == 0 {
		t.Error("the wrap-around query scored against nothing: the pair no longer exercises the 2³¹ probe")
	}
}

// TestIndexLayout pins the flat form NewIndex produces: every distinct gram
// has one slot, at or after its home with only occupied slots between, keys
// ascend along the table, rows tile ids exactly in gram order, a gram
// repeated inside one signature posts its id once, and only digests too
// short to post a gram sit in the exact table.
func TestIndexLayout(t *testing.T) {
	var entries []IndexEntry
	for i, d := range []string{
		"96:ABCDEFGABCDEFGH:ABCDEFGABCDEFG", // every gram of both signatures occurs twice or thrice
		"96:ABCDEFGH:zz",
		"96:ab:c", "96:ab:c", // gram-less twins
		"96:ABCDEFGABCDEFGH:ABCDEFGABCDEFG", // equal to entry 0, found by its grams
		"192:ABCDEFGH:ABCDEFG",
	} {
		p, err := ParsePrepared(d)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, IndexEntry{ID: int32(i), Digest: p})
	}
	ix := NewIndex(entries)

	row := func(p *postings, gram string) []int32 {
		return p.row(AppendGrams(nil, gram)[0] * ix.mul)
	}
	b96, b192 := ix.bucket(96), ix.bucket(192)
	if b96 == nil || b192 == nil || ix.bucket(48) != nil || len(ix.buckets) != 2 {
		t.Fatalf("buckets = %+v, want exactly 96 and 192", ix.buckets)
	}
	for _, c := range []struct {
		name string
		got  []int32
		want []int32
	}{
		{"96/s1 ABCDEFG", row(&b96.s1, "ABCDEFG"), []int32{0, 1, 4}},
		{"96/s1 GABCDEF", row(&b96.s1, "GABCDEF"), []int32{0, 4}},
		{"96/s1 BCDEFGH", row(&b96.s1, "BCDEFGH"), []int32{0, 1, 4}},
		{"96/s2 ABCDEFG", row(&b96.s2, "ABCDEFG"), []int32{0, 4}},
		{"96/s2 zzzzzzz", row(&b96.s2, "zzzzzzz"), nil},
		{"192/s2 ABCDEFG", row(&b192.s2, "ABCDEFG"), []int32{5}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("row %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for _, b := range ix.buckets {
		for slot, p := range []*postings{&b.s1, &b.s2} {
			if msg := checkTable(p); msg != "" {
				t.Errorf("bucket %d slot %d: %s", b.bs, slot+1, msg)
			}
		}
	}
	// "ABCDEFGABCDEFGH" has 9 windows over 8 distinct grams.
	if got := countGrams(&b96.s1); got != 8 {
		t.Errorf("bucket 96 slot 1 holds %d grams, want 8", got)
	}
	// Grams: 96/s1 8, 96/s2 7 ("ABCDEFGABCDEFG"), 192/s1 2, 192/s2 1.
	// Postings: 96/s1 18 (8 of entry 0, 2 of entry 1, 8 of entry 4), 96/s2 14,
	// 192 3.
	want := IndexSize{Grams: 18, Postings: 35}
	for _, b := range ix.buckets {
		want.Bytes += int64(16*(len(b.s1.slots)+len(b.s2.slots)) + 4*(len(b.s1.ids)+len(b.s2.ids)))
	}
	if got := ix.Size(); got != want {
		t.Errorf("Size() = %+v, want %+v", got, want)
	}
	if len(ix.exact) != 1 || !slices.Equal(ix.exact[exactKey{bs: 96, s1: "ab", s2: "c"}], []int32{2, 3}) {
		t.Errorf("exact table = %v, want only the gram-less twins", ix.exact)
	}

	var set CandidateSet
	for _, c := range []struct {
		q    string
		want []int32
	}{
		{"96:ab:c", []int32{2, 3}},
		{"96:ABCDEFGABCDEFGH:zz", []int32{0, 1, 4}},
		{"192:ABCDEFGxyz:zz", []int32{0, 4, 5}}, // sig1 meets sig1 at 192 and sig2 of the half block size
		{"48:zz:ABCDEFGxyz", []int32{0, 1, 4}},  // sig2 meets sig1 of the double block size
	} {
		q, err := ParsePrepared(c.q)
		if err != nil {
			t.Fatal(err)
		}
		set.Reset(len(entries))
		ix.Candidates(q, &set)
		if got := uniqueIDs(set.IDs); !slices.Equal(got, c.want) || len(got) != len(set.IDs) {
			t.Errorf("Candidates(%q) = %v, want %v", c.q, set.IDs, c.want)
		}
	}
}

// checkTable returns what is wrong with p's layout, or "".
func checkTable(p *postings) string {
	if p.homes == 0 {
		if len(p.slots) != 0 || len(p.ids) != 0 {
			return fmt.Sprintf("no homes but %d slots, %d ids", len(p.slots), len(p.ids))
		}
		return ""
	}
	if uint64(len(p.slots)) < p.homes+1 || p.slots[len(p.slots)-1] != emptySlot {
		return fmt.Sprintf("%d slots over %d homes: no empty sentinel after the homes", len(p.slots), p.homes)
	}
	grams := countGrams(p)
	if want := uint64(grams) + uint64(grams)/3 + 1; p.homes != want {
		return fmt.Sprintf("%d homes for %d grams, want %d", p.homes, grams, want)
	}
	next := uint32(0) // rows tile ids in key order
	var prev uint64
	for i, s := range p.slots {
		if s == emptySlot {
			continue
		}
		if s.lo != next || s.hi <= s.lo {
			return fmt.Sprintf("slot %d row [%d:%d], want it to start at %d and be non-empty", i, s.lo, s.hi, next)
		}
		if next > 0 && s.key <= prev {
			return fmt.Sprintf("slot %d key %x does not ascend past %x", i, s.key, prev)
		}
		next, prev = s.hi, s.key
		h := p.home(s.key)
		if h > uint64(i) {
			return fmt.Sprintf("slot %d holds a key whose home is %d", i, h)
		}
		for j := h; j < uint64(i); j++ {
			if p.slots[j] == emptySlot {
				return fmt.Sprintf("slot %d is empty between home %d and key slot %d", j, h, i)
			}
		}
		if ids := p.ids[s.lo:s.hi]; len(uniqueIDs(ids)) != len(ids) {
			return fmt.Sprintf("slot %d row %v repeats an id", i, ids)
		}
	}
	if int(next) != len(p.ids) {
		return fmt.Sprintf("rows cover %d of %d ids", next, len(p.ids))
	}
	return ""
}

func countGrams(p *postings) int {
	n := 0
	for _, s := range p.slots {
		if s != emptySlot {
			n++
		}
	}
	return n
}

func uniqueIDs(ids []int32) []int32 {
	s := slices.Clone(ids)
	slices.Sort(s)
	return slices.Compact(s)
}

// TestCandidateSetEpochReuse pins the O(1)-clear contract: reusing one set
// across many queries never leaks candidates between queries, including
// across a mark-table regrow.
func TestCandidateSetEpochReuse(t *testing.T) {
	p, err := ParsePrepared("96:AAAABBBBCCCCDDDDEEEE:AAAABBBBCC")
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex([]IndexEntry{{ID: 0, Digest: p}})
	var set CandidateSet
	for i := 0; i < 5; i++ {
		set.Reset(1)
		ix.Candidates(p, &set)
		if len(set.IDs) != 1 || set.IDs[0] != 0 {
			t.Fatalf("round %d: IDs = %v, want [0]", i, set.IDs)
		}
	}
	set.Reset(100) // regrow
	ix.Candidates(p, &set)
	if len(set.IDs) != 1 {
		t.Fatalf("after regrow: IDs = %v", set.IDs)
	}
	other, err := ParsePrepared("3:zz:")
	if err != nil {
		t.Fatal(err)
	}
	set.Reset(100)
	ix.Candidates(other, &set)
	if len(set.IDs) != 0 {
		t.Fatalf("unrelated query leaked candidates: %v", set.IDs)
	}
}

// TestCandidateSetEpochWrapClearsWholeTable: a pooled set serves indexes of
// different id-space sizes (a compaction shrinks one), so marks past the
// current n survive a Reset. When the epoch wraps, those must be cleared too:
// otherwise, once the epoch climbs back to a stale mark's value, a later
// Reset over the larger id space takes that id as already added and drops it.
func TestCandidateSetEpochWrapClearsWholeTable(t *testing.T) {
	p, err := ParsePrepared("96:AAAABBBBCCCCDDDDEEEE:AAAABBBBCC")
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex([]IndexEntry{{ID: 50, Digest: p}})
	var set CandidateSet
	set.Reset(100)
	set.Reset(100)
	ix.Candidates(p, &set)     // marks id 50 with epoch 2
	set.epoch = math.MaxUint32 // 2³² − 3 queries later
	set.Reset(10)              // the shrunk id space: the epoch wraps to 1
	set.Reset(100)             // grown back: epoch 2 again
	ix.Candidates(p, &set)
	if !slices.Equal(set.IDs, []int32{50}) {
		t.Fatalf("after an epoch wrap behind a shrink and a grow: IDs = %v, want [50]", set.IDs)
	}
}

// TestIndexBuildWorstCaseStaysLinear holds building the index and probing it
// to the same per-posting cost on hostile shapes as on a catalogue-shaped
// population: every posting under one gram (one long row, all keys equal in
// the sort), distinct grams that a fixed multiplier would all send to one
// home slot (a crafted catalogue against a known hash), and every entry in
// one block size. Each shape is also held to the map-based oracle.
func TestIndexBuildWorstCaseStaysLinear(t *testing.T) {
	const n = 50_000
	rng := rand.New(rand.NewSource(17))
	randSig := func(alphabet string, length int) string {
		b := make([]byte, length)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	entriesOf := func(digests []PreparedDigest) []IndexEntry {
		es := make([]IndexEntry, len(digests))
		for i, d := range digests {
			es[i] = IndexEntry{ID: int32(i), Digest: d}
		}
		return es
	}
	// perUnit is the best of three: build, then probe every query, divided
	// by postings built plus ids returned.
	perUnit := func(es []IndexEntry, queries []PreparedDigest) time.Duration {
		var best time.Duration
		var set CandidateSet
		for try := 0; try < 3; try++ {
			start := time.Now()
			ix := NewIndex(es)
			units := ix.Size().Postings
			for _, q := range queries {
				set.Reset(len(es))
				ix.Candidates(q, &set)
				units += len(set.IDs) + len(q.S1) + len(q.S2)
			}
			if d := time.Since(start) / time.Duration(max(units, 1)); try == 0 || d < best {
				best = d
			}
		}
		return best
	}

	// The catalogue shape: families of mutated 64-byte signatures over three
	// block sizes, queried with members of the same families.
	var catalogue []PreparedDigest
	for f := 0; f < n/64; f++ {
		base := randSig(base64Chars, spamsumLength)
		for m := 0; m < 64; m++ {
			s1 := []byte(base)
			for k := 0; k < 4; k++ {
				s1[rng.Intn(len(s1))] = base64Chars[rng.Intn(64)]
			}
			catalogue = append(catalogue, PreparedDigest{BlockSize: 192 << rng.Intn(3), S1: string(s1), S2: string(s1[:32])})
		}
	}
	baseline := perUnit(entriesOf(catalogue), catalogue[:2000])

	oneGram := make([]PreparedDigest, n)
	for i := range oneGram {
		oneGram[i] = PreparedDigest{BlockSize: 96, S1: "ABCDEFG"}
	}

	// Grams g with g·fixedMul < 2⁶⁴/homes: under that multiplier every one of
	// them has home slot 0, so the table would be one run of n keys and every
	// probe a scan of it. g = h·fixedMul⁻¹ for small h, kept when it fits in
	// a gram's 56 bits.
	const fixedMul = 0x9e3779b97f4a7c15
	inv := uint64(fixedMul) // Newton's iteration for the inverse of an odd number mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - fixedMul*inv
	}
	homes := uint64(n) + n/3 + 1
	oneHome := make([]PreparedDigest, 0, n)
	for len(oneHome) < n {
		if g := rng.Uint64() % (math.MaxUint64 / homes) * inv; g < 1<<56 {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], g)
			oneHome = append(oneHome, PreparedDigest{BlockSize: 96, S1: string(b[1:])})
		}
	}
	ib := indexBuilder{mul: fixedMul, buf: make([]posting, n), tmp: make([]posting, n)}
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
	}
	if p := ib.postings(entriesOf(oneHome), members, func(p *PreparedDigest) string { return p.S1 }); p.homes != homes || p.slots[n-1] == emptySlot {
		t.Fatalf("the crafted grams do not pile up under the fixed multiplier: %d homes, slot %d empty", p.homes, n-1)
	}

	oneBucket := make([]PreparedDigest, n)
	for i := range oneBucket {
		oneBucket[i] = PreparedDigest{BlockSize: 3, S1: randSig(base64Chars, spamsumLength/2), S2: randSig(base64Chars, spamsumLength/4)}
	}

	for _, tc := range []struct {
		name    string
		digests []PreparedDigest
		queries []PreparedDigest
	}{
		{"one-gram", oneGram, oneGram[:1]},
		{"one-home-under-a-fixed-multiplier", oneHome, oneHome},
		{"one-block-size", oneBucket, oneBucket[:2000]},
	} {
		es := entriesOf(tc.digests)
		got := perUnit(es, tc.queries)
		t.Logf("%s: %v per unit (catalogue: %v)", tc.name, got, baseline)
		if got > 10*baseline {
			t.Errorf("%s: %v per posting built or id returned, more than 10x the catalogue's %v", tc.name, got, baseline)
		}
		mustMatchOracle(t, tc.name, es, tc.queries[:min(len(tc.queries), 500)])
	}
}

// mustMatchOracle holds NewIndex to the map-based oracle: every query must
// collect the same ids in the same order.
func mustMatchOracle(t *testing.T, name string, entries []IndexEntry, queries []PreparedDigest) {
	t.Helper()
	ix, or := NewIndex(entries), newOracleIndex(entries)
	n := 0
	for _, e := range entries {
		n = max(n, int(e.ID)+1)
	}
	var got, want CandidateSet
	for _, q := range queries {
		got.Reset(n)
		want.Reset(n)
		ix.Candidates(q, &got)
		or.candidates(q, &want)
		if !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("%s: Candidates(%+v) = %v, oracle %v", name, q, got.IDs, want.IDs)
		}
	}
}

// oracleIndex is the map-based index the flat gram table replaced — a Go map
// interning each gram to a row number over compressed sparse rows — kept as
// the reference NewIndex is held to.
type oracleIndex struct {
	buckets map[uint32]*oracleBucket
	exact   map[exactKey][]int32
}

type oracleBucket struct{ s1, s2 oraclePostings }

type oraclePostings struct {
	nums map[uint64]uint32
	offs []uint32
	ids  []int32
}

func newOracleIndex(entries []IndexEntry) *oracleIndex {
	members := make(map[uint32][]int32)
	exact := make(map[exactKey][]int32)
	for i := range entries {
		p := &entries[i].Digest
		members[p.BlockSize] = append(members[p.BlockSize], int32(i))
		if len(p.S1) < GramSize && len(p.S2) < GramSize {
			k := exactKey{bs: p.BlockSize, s1: p.S1, s2: p.S2}
			exact[k] = append(exact[k], entries[i].ID)
		}
	}
	buckets := make(map[uint32]*oracleBucket, len(members))
	for bs, m := range members {
		buckets[bs] = &oracleBucket{
			s1: buildOraclePostings(entries, m, func(p *PreparedDigest) string { return p.S1 }),
			s2: buildOraclePostings(entries, m, func(p *PreparedDigest) string { return p.S2 }),
		}
	}
	return &oracleIndex{buckets: buckets, exact: exact}
}

func buildOraclePostings(entries []IndexEntry, members []int32, sig func(*PreparedDigest) string) oraclePostings {
	nums := make(map[uint64]uint32)
	type gramState struct {
		n    uint32
		last int32
	}
	type gramPair struct {
		num uint32
		id  int32
	}
	var grams []gramState
	var pairs []gramPair
	for _, ord := range members {
		e := &entries[ord]
		for _, g := range AppendGrams(nil, sig(&e.Digest)) {
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
		ids[offs[p.num+1]-st.n] = p.id
		st.n--
	}
	return oraclePostings{nums: nums, offs: offs, ids: ids}
}

func (ix *oracleIndex) candidates(q PreparedDigest, set *CandidateSet) {
	for _, id := range ix.exact[exactKey{bs: q.BlockSize, s1: q.S1, s2: q.S2}] {
		set.add(id)
	}
	grams := AppendGrams(nil, q.S1)
	if b := ix.buckets[q.BlockSize]; b != nil {
		b.s1.probe(grams, set)
	}
	if q.BlockSize%2 == 0 {
		for _, hb := range [2]uint32{q.BlockSize / 2, q.BlockSize/2 + 1<<31} {
			if b := ix.buckets[hb]; b != nil {
				b.s2.probe(grams, set)
			}
		}
	}
	grams = AppendGrams(nil, q.S2)
	if b := ix.buckets[q.BlockSize]; b != nil {
		b.s2.probe(grams, set)
	}
	if b := ix.buckets[q.BlockSize*2]; b != nil {
		b.s1.probe(grams, set)
	}
}

func (p *oraclePostings) probe(grams []uint64, set *CandidateSet) {
	for _, g := range grams {
		if num, ok := p.nums[g]; ok {
			for _, id := range p.ids[p.offs[num]:p.offs[num+1]] {
				set.add(id)
			}
		}
	}
}
