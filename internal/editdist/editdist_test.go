package editdist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"a", "b", 1},
		{"ab", "ba", 2}, // plain Levenshtein counts a transposition as 2
		{"gumbo", "gambol", 2},
		{"saturday", "sunday", 3},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"ab", "ba", 1}, // single transposition
		{"abcd", "acbd", 1},
		{"ca", "abc", 3}, // OSA cannot reuse edited substrings
		{"kitten", "sitting", 3},
		{"abcdef", "abcdfe", 1},
		{"banana", "banaan", 1},
	}
	for _, c := range cases {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("DamerauLevenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestWeightedKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "ab", 2},
		{"abc", "abc", 0},
		{"a", "b", 2},       // substitution costs 2
		{"ab", "ba", 2},     // delete+insert
		{"abc", "axc", 2},   // one substitution
		{"abcd", "bcde", 2}, // drop 'a', add 'e'
	}
	for _, c := range cases {
		if got := Weighted(c.a, c.b); got != c.want {
			t.Errorf("Weighted(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestWeightedEqualsLCSFormula(t *testing.T) {
	// With ins=del=1, sub=2, distance == len(a)+len(b)-2*LCSubsequence(a,b).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := randomDigest(rng, rng.Intn(40))
		b := randomDigest(rng, rng.Intn(40))
		want := len(a) + len(b) - 2*lcsLen(a, b)
		if got := Weighted(a, b); got != want {
			t.Fatalf("Weighted(%q,%q) = %d, want %d (LCS formula)", a, b, got, want)
		}
	}
}

// lcsLen is the length of the longest common subsequence of a and b, by the
// textbook DP.
func lcsLen(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = max(prev[j], cur[j-1])
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func randomDigest(rng *rand.Rand, n int) string {
	return randomOver(rng, "ABCDEFab01+/", n)
}

// Metric laws over short random strings.

func TestMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dists := map[string]func(a, b string) int{
		"levenshtein": Levenshtein,
		"damerau":     DamerauLevenshtein,
		"weighted":    Weighted,
	}
	for name, d := range dists {
		for i := 0; i < 400; i++ {
			a := randomDigest(rng, rng.Intn(24))
			b := randomDigest(rng, rng.Intn(24))
			c := randomDigest(rng, rng.Intn(24))
			if d(a, a) != 0 {
				t.Fatalf("%s: d(a,a) != 0 for %q", name, a)
			}
			if d(a, b) != d(b, a) {
				t.Fatalf("%s: not symmetric for %q,%q", name, a, b)
			}
			if a != b && d(a, b) <= 0 {
				t.Fatalf("%s: d(a,b) <= 0 for distinct %q,%q", name, a, b)
			}
			if d(a, c) > d(a, b)+d(b, c) {
				t.Fatalf("%s: triangle inequality violated for %q,%q,%q", name, a, b, c)
			}
		}
	}
}

func TestDamerauNeverExceedsLevenshtein(t *testing.T) {
	f := func(a, b []byte) bool {
		sa, sb := clampASCII(a), clampASCII(b)
		return DamerauLevenshtein(sa, sb) <= Levenshtein(sa, sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinBounds(t *testing.T) {
	f := func(a, b []byte) bool {
		sa, sb := clampASCII(a), clampASCII(b)
		d := Levenshtein(sa, sb)
		lo := len(sa) - len(sb)
		if lo < 0 {
			lo = -lo
		}
		hi := len(sa)
		if len(sb) > hi {
			hi = len(sb)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func clampASCII(b []byte) string {
	if len(b) > 32 {
		b = b[:32]
	}
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = 'A' + c%26
	}
	return string(out)
}

func TestLongestCommonSubstring(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"abc", "abc", 3},
		{"xabcy", "zabcw", 3},
		{"abcdef", "zcdefq", 4},
		{"aaaa", "aa", 2},
		{"abc", "def", 0},
	}
	for _, c := range cases {
		if got := LongestCommonSubstring(c.a, c.b); got != c.want {
			t.Errorf("LongestCommonSubstring(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHasCommonSubstring(t *testing.T) {
	if !HasCommonSubstring("abcdefgh", "xxabcdefgxx", 7) {
		t.Error("expected common 7-substring")
	}
	if HasCommonSubstring("abcdefg", "abcdefX", 7) {
		t.Error("unexpected common 7-substring")
	}
	if !HasCommonSubstring("", "", 0) {
		t.Error("n=0 must always match")
	}
	if HasCommonSubstring("short", "short", 7) {
		// strings shorter than n can never share an n-substring
		t.Error("short strings cannot share a 7-substring")
	}
}

func TestHasCommonSubstringAgreesWithLCS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := randomDigest(rng, rng.Intn(30))
		b := randomDigest(rng, rng.Intn(30))
		for _, n := range []int{1, 3, 7} {
			want := LongestCommonSubstring(a, b) >= n
			if got := HasCommonSubstring(a, b, n); got != want {
				t.Fatalf("HasCommonSubstring(%q,%q,%d) = %v, want %v", a, b, n, got, want)
			}
		}
	}
}

func BenchmarkLevenshtein64(b *testing.B) {
	s1 := strings.Repeat("abcdefgh", 8)
	s2 := strings.Repeat("abcdefgi", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Levenshtein(s1, s2)
	}
}

func BenchmarkDamerauLevenshtein64(b *testing.B) {
	s1 := strings.Repeat("abcdefgh", 8)
	s2 := strings.Repeat("abcdefgi", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DamerauLevenshtein(s1, s2)
	}
}

func BenchmarkWeighted64(b *testing.B) {
	s1 := strings.Repeat("abcdefgh", 8)
	s2 := strings.Repeat("abcdefgi", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Weighted(s1, s2)
	}
}

// checkKernels holds every entry point to its oracle on one pair: the three
// distances against their DP loops, Weighted against the LCS identity, and
// the gate against LongestCommonSubstring for each n in gates. The
// package-level functions always put the shorter string in the table, so the
// Pattern methods are also driven directly with each string in either role —
// a text longer than the pattern, and longer than a word, included.
func checkKernels(t testing.TB, a, b string, gates ...int) {
	t.Helper()
	lev, dam, wgt := levenshteinDP(a, b), damerauLevenshteinDP(a, b), weightedDP(a, b)
	if want := len(a) + len(b) - 2*lcsLen(a, b); wgt != want {
		t.Fatalf("weightedDP(%q,%q) = %d, LCS formula gives %d", a, b, wgt, want)
	}
	lcs := LongestCommonSubstring(a, b)
	for _, pair := range [2][2]string{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		if got := Levenshtein(x, y); got != lev {
			t.Fatalf("Levenshtein(%q,%q) = %d, DP %d", x, y, got, lev)
		}
		if got := DamerauLevenshtein(x, y); got != dam {
			t.Fatalf("DamerauLevenshtein(%q,%q) = %d, DP %d", x, y, got, dam)
		}
		if got := Weighted(x, y); got != wgt {
			t.Fatalf("Weighted(%q,%q) = %d, DP %d", x, y, got, wgt)
		}
		for _, n := range gates {
			if got := HasCommonSubstring(x, y, n); got != (lcs >= n) {
				t.Fatalf("HasCommonSubstring(%q,%q,%d) = %v, longest common substring is %d", x, y, n, got, lcs)
			}
		}
		var p Pattern
		if !p.Set(x) {
			if len(x) <= WordSize || p.Len() != 0 {
				t.Fatalf("Set(%q) = false, Len %d", x, p.Len())
			}
			continue
		}
		if got := p.Levenshtein(y); got != lev {
			t.Fatalf("Pattern(%q).Levenshtein(%q) = %d, DP %d", x, y, got, lev)
		}
		if got := p.DamerauLevenshtein(y); got != dam {
			t.Fatalf("Pattern(%q).DamerauLevenshtein(%q) = %d, DP %d", x, y, got, dam)
		}
		if got := p.Weighted(y); got != wgt {
			t.Fatalf("Pattern(%q).Weighted(%q) = %d, DP %d", x, y, got, wgt)
		}
		for _, n := range gates {
			if got := p.HasCommonSubstring(y, n); got != (lcs >= n) {
				t.Fatalf("Pattern(%q).HasCommonSubstring(%q,%d) = %v, longest common substring is %d", x, y, n, got, lcs)
			}
		}
	}
}

// TestKernelsMatchOraclesExhaustive covers every pair of strings over {A,B}
// up to length 7: every shape of match mask, carry chain and transposition a
// two-letter alphabet can produce, including the empty string on either side.
func TestKernelsMatchOraclesExhaustive(t *testing.T) {
	var all []string
	for n := 0; n <= 7; n++ {
		for bitsOf := 0; bitsOf < 1<<n; bitsOf++ {
			s := make([]byte, n)
			for i := range s {
				s[i] = 'A' + byte(bitsOf>>i&1)
			}
			all = append(all, string(s))
		}
	}
	for _, a := range all {
		for _, b := range all {
			checkKernels(t, a, b, 0, 1, 2, 3, 7)
		}
	}
}

// boundaryLengths straddle the gate width (7), the half-signature cap (32)
// and the word: 64 is the longest pattern a kernel takes, 65 the shortest
// that falls back to the DP loops.
var boundaryLengths = []int{0, 1, 6, 7, 8, 31, 32, 63, 64, 65, 80}

func randomOver(rng *rand.Rand, alphabet string, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(s)
}

// relative returns a string of length n derived from a by a few random
// edits (substitution, deletion, insertion, adjacent transposition), so the
// pair shares long runs the way two builds of one application do — random
// strings over 64 letters almost never pass the gate or align.
func relative(rng *rand.Rand, alphabet, a string, n int) string {
	s := []byte(a)
	for edits := rng.Intn(9); edits > 0 && len(s) > 1; edits-- {
		i := rng.Intn(len(s) - 1)
		switch rng.Intn(4) {
		case 0:
			s[i] = alphabet[rng.Intn(len(alphabet))]
		case 1:
			s = append(s[:i], s[i+1:]...)
		case 2:
			s = append(s[:i+1], s[i:]...)
			s[i] = alphabet[rng.Intn(len(alphabet))]
		case 3:
			s[i], s[i+1] = s[i+1], s[i]
		}
	}
	if len(s) > n {
		s = s[:n]
	}
	return string(s) + randomOver(rng, alphabet, n-len(s))
}

// TestKernelsMatchOraclesAcrossWordBoundary is the seeded random corpus:
// 100 000 pairs with lengths from boundaryLengths, so both sides of the
// kernel/fallback switch and every combination of short pattern and long
// text run, over a 2-letter, a 4-letter, the 64-letter digest alphabet and
// bytes ≥ 0x80 (the table is indexed by byte, not by base64 letter).
func TestKernelsMatchOraclesAcrossWordBoundary(t *testing.T) {
	pairs := 25000
	if testing.Short() {
		pairs = 2500
	}
	const base64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for _, alphabet := range []string{"AB", "ACGT", base64, "\x80\x81\xa0\xc3\xfe\xff"} {
		rng := rand.New(rand.NewSource(int64(len(alphabet))))
		for i := 0; i < pairs; i++ {
			la := boundaryLengths[rng.Intn(len(boundaryLengths))]
			lb := boundaryLengths[rng.Intn(len(boundaryLengths))]
			a := randomOver(rng, alphabet, la)
			b := randomOver(rng, alphabet, lb)
			if rng.Intn(2) == 0 {
				b = relative(rng, alphabet, a, lb)
			}
			checkKernels(t, a, b, 1, 7, 8, 9)
		}
	}
}

// TestKernelsMatchOraclesOnRuns drives the carry chains with the inputs that
// make them longest: one repeated letter (every mask bit set, so the LCS
// kernel's addition carries through the whole word) and alternating pairs
// against their swapped form (every position is a candidate transposition,
// which the OSA rule may use only where edits do not overlap).
func TestKernelsMatchOraclesOnRuns(t *testing.T) {
	alternating := func(pair string, n int) string {
		return strings.Repeat(pair, n/2+1)[:n]
	}
	for _, la := range boundaryLengths {
		for _, lb := range boundaryLengths {
			checkKernels(t, strings.Repeat("A", la), strings.Repeat("A", lb), 1, 7)
			checkKernels(t, strings.Repeat("A", la), alternating("AB", lb), 1, 7)
			checkKernels(t, alternating("AB", la), alternating("BA", lb), 1, 7)
			checkKernels(t, alternating("AB", la), alternating("AAB", lb), 1, 7)
			// Swap every third adjacent pair of a run-free string.
			a := []byte(alternating("ABCDEFG", la))
			b := []byte(alternating("ABCDEFG", lb))
			for i := 0; i+1 < len(b); i += 3 {
				b[i], b[i+1] = b[i+1], b[i]
			}
			checkKernels(t, string(a), string(b), 1, 7)
		}
	}
}

// TestDigestSizedInputsDoNotAllocate pins the package comment's promise for
// the four entry points at the largest size the scoring path sends them.
func TestDigestSizedInputsDoNotAllocate(t *testing.T) {
	s1 := strings.Repeat("abcdefgh", 8)
	s2 := strings.Repeat("abcdefgi", 8)
	for name, fn := range map[string]func(){
		"Levenshtein":        func() { Levenshtein(s1, s2) },
		"DamerauLevenshtein": func() { DamerauLevenshtein(s1, s2) },
		"Weighted":           func() { Weighted(s1, s2) },
		"HasCommonSubstring": func() { HasCommonSubstring(s1, s2, 7) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per call on 64-byte inputs, want 0", name, allocs)
		}
	}
}

// FuzzEditKernels: on any pair of byte strings the kernels equal their DP
// oracles with the strings in either order (so each distance is symmetric),
// Weighted obeys the LCS identity, the 7-byte gate equals the
// longest-common-substring oracle, and nothing panics on either side of the
// word boundary. Inputs are cut at 512 bytes — eight words — to keep the
// quadratic oracles from dominating the run.
func FuzzEditKernels(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte(""), []byte("abcdefg"))
	f.Add([]byte("kitten"), []byte("sitting"))
	f.Add([]byte("ab"), []byte("ba"))
	f.Add([]byte(strings.Repeat("abcdefgh", 8)), []byte(strings.Repeat("abcdefgi", 8)))         // 64 / 64
	f.Add([]byte(strings.Repeat("abcdefgh", 8)), []byte(strings.Repeat("abcdefgi", 8)+"j"))     // 64 / 65
	f.Add([]byte(strings.Repeat("abcdefgh", 8)+"x"), []byte(strings.Repeat("abcdefgi", 8)+"j")) // 65 / 65
	f.Add([]byte("\x80\xff\xfe\x80\xff\xfe\x80\xff"), []byte("\xff\x80\xfe\xff\x80\xfe\xff\x80"))
	f.Add([]byte(strings.Repeat("A", 64)), []byte(strings.Repeat("A", 40)))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		const limit = 8 * WordSize
		checkKernels(t, string(a[:min(len(a), limit)]), string(b[:min(len(b), limit)]), 7)
	})
}
