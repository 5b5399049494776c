// Tests of the shared candidate-pruning engine: prepared digests must score
// exactly as parsed ones, and Index.Candidates must return a superset of
// every entry scoring nonzero — the zero-score pruning guarantee both
// Matcher and analysis.FingerprintIndex stand on.
package ssdeep

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
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

// TestIndexLayout pins the flat form NewIndex produces: rows partition ids
// exactly, a gram repeated inside one signature posts its id once, and only
// digests too short to post a gram sit in the exact table.
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
		num, ok := p.nums[AppendGrams(nil, gram)[0]]
		if !ok {
			return nil
		}
		return p.ids[p.offs[num]:p.offs[num+1]]
	}
	b := ix.buckets[96]
	for _, c := range []struct {
		name string
		got  []int32
		want []int32
	}{
		{"96/s1 ABCDEFG", row(&b.s1, "ABCDEFG"), []int32{0, 1, 4}},
		{"96/s1 GABCDEF", row(&b.s1, "GABCDEF"), []int32{0, 4}},
		{"96/s1 BCDEFGH", row(&b.s1, "BCDEFGH"), []int32{0, 1, 4}},
		{"96/s2 ABCDEFG", row(&b.s2, "ABCDEFG"), []int32{0, 4}},
		{"96/s2 zzzzzzz", row(&b.s2, "zzzzzzz"), nil},
		{"192/s2 ABCDEFG", row(&ix.buckets[192].s2, "ABCDEFG"), []int32{5}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("row %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for bs, b := range ix.buckets {
		for slot, p := range []*postings{&b.s1, &b.s2} {
			if len(p.offs) != len(p.nums)+1 || p.offs[0] != 0 || int(p.offs[len(p.nums)]) != len(p.ids) {
				t.Errorf("bucket %d slot %d: %d grams, offs %v, %d ids: rows do not partition ids",
					bs, slot+1, len(p.nums), p.offs, len(p.ids))
			}
		}
	}
	// "ABCDEFGABCDEFGH" has 9 windows over 8 distinct grams.
	if got := len(b.s1.nums); got != 8 {
		t.Errorf("bucket 96 slot 1 interned %d grams, want 8", got)
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

// TestMatcherMatchesExhaustive pins that the rebased Matcher returns exactly
// the entries a brute-force scan over all registered digests would, for a
// population spanning comparable and incomparable block sizes.
func TestMatcherMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewMatcher(BackendWeighted)
	var pop []string
	pop = append(pop, relatedDigests(rng, 80)...)
	for i := 0; i < 120; i++ {
		pop = append(pop, randomDigestString(rng))
	}
	for i, d := range pop {
		if err := m.Add(fmt.Sprintf("e%03d", i), d); err != nil {
			t.Fatalf("Add(%q): %v", d, err)
		}
	}
	queries := append([]string{}, pop[:30]...)
	queries = append(queries, relatedDigests(rng, 10)...)
	for _, minScore := range []int{0, 1, 40, 100} {
		for _, qs := range queries {
			got, err := m.Matches(qs, minScore)
			if err != nil {
				t.Fatal(err)
			}
			q, _ := ParsePrepared(qs)
			var want []Match
			for i, d := range pop {
				p, _ := ParsePrepared(d)
				if score := ComparePrepared(q, p, BackendWeighted); score >= max(minScore, 1) {
					want = append(want, Match{Label: fmt.Sprintf("e%03d", i), Digest: d, Score: score})
				}
			}
			slices.SortFunc(want, func(a, b Match) int {
				switch {
				case a.Score != b.Score:
					if a.Score > b.Score {
						return -1
					}
					return 1
				case a.Label != b.Label:
					return strings.Compare(a.Label, b.Label)
				}
				return strings.Compare(a.Digest, b.Digest)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("Matches(%q, %d):\n got  %v\n want %v", qs, minScore, got, want)
			}
		}
	}
}

// TestMatcherQueriesDuringAdds runs queries while entries are still being
// registered: every Add outdates the bulk-built index, so each query may
// rebuild it, and must see a population that is a prefix of the adds — the
// first entry always, never a half-registered one.
func TestMatcherQueriesDuringAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pop := relatedDigests(rng, 200)
	m := NewMatcher(BackendWeighted)
	if err := m.Add("e000", pop[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ms, err := m.Matches(pop[0], 100)
				if err != nil || len(ms) == 0 || ms[0].Label != "e000" {
					t.Errorf("query %d during adds: %v, %v; want e000 first", i, ms, err)
					return
				}
			}
		}()
	}
	for i, d := range pop[1:] {
		if err := m.Add(fmt.Sprintf("e%03d", i+1), d); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if m.Len() != len(pop) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(pop))
	}
	last, ok, err := m.Best(pop[len(pop)-1])
	if err != nil || !ok || last.Score != 100 {
		t.Errorf("the last entry added is not found: %+v, %v, %v", last, ok, err)
	}
}
