package ssdeep

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomBlob produces pseudo-random but structured data: runs of repeated
// tokens so that fuzzy hashing has structure to latch onto, the way object
// code and text do (uniform random data defeats any similarity digest).
func randomBlob(rng *rand.Rand, n int) []byte {
	words := []string{"mov", "call", "ret", "push", "pop", "xor", "lea", "jmp",
		"climate", "solver", "matrix", "kernel", "flux", "grid", "halo"}
	var buf bytes.Buffer
	for buf.Len() < n {
		w := words[rng.Intn(len(words))]
		for r := rng.Intn(4); r >= 0; r-- {
			buf.WriteString(w)
			buf.WriteByte(byte(rng.Intn(256)))
		}
	}
	return buf.Bytes()[:n]
}

func mustHash(t *testing.T, data []byte) string {
	t.Helper()
	h, err := Hash(data)
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	return h
}

func mustCompare(t *testing.T, a, b string) int {
	t.Helper()
	s, err := Compare(a, b)
	if err != nil {
		t.Fatalf("Compare(%q, %q): %v", a, b, err)
	}
	return s
}

func TestHashEmpty(t *testing.T) {
	h := mustHash(t, nil)
	if h != "3::" {
		t.Errorf("Hash(empty) = %q, want 3::", h)
	}
}

func TestHashDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randomBlob(rng, 16384)
	h1 := mustHash(t, data)
	h2 := mustHash(t, data)
	if h1 != h2 {
		t.Errorf("hash not deterministic: %q vs %q", h1, h2)
	}
}

func TestHashFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 100, 1000, 10000, 100000} {
		h := mustHash(t, randomBlob(rng, n))
		d, err := ParseDigest(h)
		if err != nil {
			t.Fatalf("ParseDigest(%q): %v", h, err)
		}
		if d.BlockSize < blockMin {
			t.Errorf("n=%d: block size %d < %d", n, d.BlockSize, blockMin)
		}
		if len(d.Sig1) > spamsumLength {
			t.Errorf("n=%d: sig1 length %d > %d", n, len(d.Sig1), spamsumLength)
		}
		if len(d.Sig2) > spamsumLength/2 {
			t.Errorf("n=%d: sig2 length %d > %d", n, len(d.Sig2), spamsumLength/2)
		}
		if d.String() != h {
			t.Errorf("roundtrip mismatch: %q -> %q", h, d.String())
		}
	}
}

func TestBlockSizeGrowsWithInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small, err := HashDigest(randomBlob(rng, 100))
	if err != nil {
		t.Fatal(err)
	}
	large, err := HashDigest(randomBlob(rng, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if small.BlockSize >= large.BlockSize {
		t.Errorf("block size should grow: %d (100B) vs %d (1MiB)", small.BlockSize, large.BlockSize)
	}
}

func TestSelfCompareIs100(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{64, 512, 4096, 65536} {
		h := mustHash(t, randomBlob(rng, n))
		if s := mustCompare(t, h, h); s != 100 {
			t.Errorf("n=%d: self-compare = %d, want 100", n, s)
		}
	}
}

func TestSimilarInputsScoreHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randomBlob(rng, 32768)
	mutated := append([]byte(nil), data...)
	// Flip a handful of bytes: a "small code change".
	for i := 0; i < 8; i++ {
		mutated[rng.Intn(len(mutated))] ^= 0xFF
	}
	h1 := mustHash(t, data)
	h2 := mustHash(t, mutated)
	if s := mustCompare(t, h1, h2); s < 60 {
		t.Errorf("similar inputs scored %d, want >= 60 (h1=%s h2=%s)", s, h1, h2)
	}
}

func TestInsertionPreservesSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randomBlob(rng, 32768)
	// Insert a 100-byte block in the middle: cryptographic hashes change
	// completely, fuzzy hashes must still match strongly.
	ins := randomBlob(rng, 100)
	mutated := append(append(append([]byte(nil), data[:16000]...), ins...), data[16000:]...)
	h1 := mustHash(t, data)
	h2 := mustHash(t, mutated)
	if s := mustCompare(t, h1, h2); s < 50 {
		t.Errorf("insertion dropped score to %d, want >= 50", s)
	}
}

func TestUnrelatedInputsScoreLow(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(701))
	a := make([]byte, 32768)
	b := make([]byte, 32768)
	rngA.Read(a)
	rngB.Read(b)
	h1 := mustHash(t, a)
	h2 := mustHash(t, b)
	if s := mustCompare(t, h1, h2); s > 30 {
		t.Errorf("unrelated uniform-random inputs scored %d, want <= 30", s)
	}
}

func TestCompareSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		a := randomBlob(rng, 1000+rng.Intn(30000))
		b := append([]byte(nil), a...)
		for j := 0; j < rng.Intn(50); j++ {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		h1 := mustHash(t, a)
		h2 := mustHash(t, b)
		if mustCompare(t, h1, h2) != mustCompare(t, h2, h1) {
			t.Fatalf("asymmetric score for %s vs %s", h1, h2)
		}
	}
}

func TestCompareRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	digests := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		digests = append(digests, mustHash(t, randomBlob(rng, 100+rng.Intn(50000))))
	}
	for _, a := range digests {
		for _, b := range digests {
			s := mustCompare(t, a, b)
			if s < 0 || s > 100 {
				t.Fatalf("score %d out of range for %s vs %s", s, a, b)
			}
		}
	}
}

func TestIncomparableBlockSizesScoreZero(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	small := mustHash(t, randomBlob(rng, 200))  // block size 3 or 6
	huge := mustHash(t, randomBlob(rng, 4<<20)) // block size >> 12
	if s := mustCompare(t, small, huge); s != 0 {
		t.Errorf("incomparable block sizes scored %d, want 0", s)
	}
}

func TestMalformedDigests(t *testing.T) {
	bad := []string{"", "3", "3:abc", "x:abc:def", "0:a:b", "-3:a:b"}
	for _, s := range bad {
		if _, err := ParseDigest(s); err == nil {
			t.Errorf("ParseDigest(%q) should fail", s)
		}
		if _, err := Compare(s, "3:abc:def"); err == nil {
			t.Errorf("Compare(%q, ...) should fail", s)
		}
	}
	// Trailing filename is tolerated.
	if _, err := ParseDigest(`3:abc:def,"/usr/bin/bash"`); err != nil {
		t.Errorf("digest with filename suffix rejected: %v", err)
	}
}

func TestEliminateSequences(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"abc", "abc"},
		{"aaaa", "aaa"},
		{"aaaaaaab", "aaab"},
		{"abaaaab", "abaaab"},
		{"aabbccdd", "aabbccdd"},
		{"xxxxyyyyzzzz", "xxxyyyzzz"},
	}
	for _, c := range cases {
		if got := eliminateSequences(c.in); got != c.want {
			t.Errorf("eliminateSequences(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRollingHashWindowProperty(t *testing.T) {
	// The rolling hash value must depend only on the last 7 bytes consumed.
	var a, b rollingState
	for _, c := range []byte("prefix-one-!") {
		a.roll(c)
	}
	for _, c := range []byte("completely different prefix material") {
		b.roll(c)
	}
	var last uint32
	for _, c := range []byte("1234567") {
		last = a.roll(c)
		b.roll(c)
	}
	if got := b.sum(); got != last {
		t.Errorf("rolling hash depends on more than the window: %d vs %d", got, last)
	}
}

func TestHashReader(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randomBlob(rng, 10000)
	hr, err := HashReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if hd := mustHash(t, data); hr != hd {
		t.Errorf("HashReader %q != Hash %q", hr, hd)
	}
}

func TestBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := randomBlob(rng, 32768)
	mutated := append([]byte(nil), data...)
	for i := 0; i < 20; i++ {
		mutated[rng.Intn(len(mutated))] ^= 0x55
	}
	h1 := mustHash(t, data)
	h2 := mustHash(t, mutated)
	for _, b := range []Backend{BackendWeighted, BackendDamerau, BackendLevenshtein} {
		s, err := CompareWith(h1, h2, b)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if s < 40 || s > 100 {
			t.Errorf("backend %v: score %d outside plausible band", b, s)
		}
		self, err := CompareWith(h1, h1, b)
		if err != nil || self != 100 {
			t.Errorf("backend %v: self-compare = %d (err %v), want 100", b, self, err)
		}
	}
}

func TestQuickCompareProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64, na, nb uint16) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBlob(r, 200+int(na)%20000)
		b := randomBlob(r, 200+int(nb)%20000)
		ha, err1 := Hash(a)
		hb, err2 := Hash(b)
		if err1 != nil || err2 != nil {
			return false
		}
		s1, e1 := Compare(ha, hb)
		s2, e2 := Compare(hb, ha)
		if e1 != nil || e2 != nil {
			return false
		}
		return s1 == s2 && s1 >= 0 && s1 <= 100
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatcherRanksCloserVariantsHigher(t *testing.T) {
	for _, backend := range []Backend{BackendWeighted, BackendDamerau, BackendLevenshtein} {
		t.Run(backend.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			base := randomBlob(rng, 40000)
			variant := func(nmut int) []byte {
				v := append([]byte(nil), base...)
				for i := 0; i < nmut; i++ {
					v[rng.Intn(len(v))] ^= byte(1 + rng.Intn(255))
				}
				return v
			}
			m := NewMatcher(backend)
			h0 := mustHash(t, base)
			if err := m.Add("exact", h0); err != nil {
				t.Fatal(err)
			}
			hNear := mustHash(t, variant(10))
			if err := m.Add("near", hNear); err != nil {
				t.Fatal(err)
			}
			hFar := mustHash(t, variant(3000))
			if err := m.Add("far", hFar); err != nil {
				t.Fatal(err)
			}
			if err := m.Add("unrelated", mustHash(t, randomBlob(rand.New(rand.NewSource(999)), 40000))); err != nil {
				t.Fatal(err)
			}

			matches, err := m.Matches(h0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(matches) < 2 {
				t.Fatalf("want at least 2 matches, got %d: %+v", len(matches), matches)
			}
			if matches[0].Label != "exact" || matches[0].Score != 100 {
				t.Errorf("best match = %+v, want exact/100", matches[0])
			}
			scoreOf := func(label string) int {
				for _, mt := range matches {
					if mt.Label == label {
						return mt.Score
					}
				}
				return 0
			}
			if scoreOf("near") <= scoreOf("far") {
				t.Errorf("near (%d) should outscore far (%d)", scoreOf("near"), scoreOf("far"))
			}

			best, ok, err := m.Best(h0)
			if err != nil || !ok || best.Label != "exact" {
				t.Errorf("Best = %+v ok=%v err=%v, want exact", best, ok, err)
			}
			if m.Len() != 4 {
				t.Errorf("Len = %d, want 4", m.Len())
			}
		})
	}
}

func TestMatcherRejectsMalformed(t *testing.T) {
	m := NewMatcher(BackendWeighted)
	if err := m.Add("x", "not-a-digest"); err == nil {
		t.Error("Add should reject malformed digest")
	}
	if _, err := m.Matches("not-a-digest", 0); err == nil {
		t.Error("Matches should reject malformed digest")
	}
}

func BenchmarkHash4K(b *testing.B)  { benchHash(b, 4<<10) }
func BenchmarkHash64K(b *testing.B) { benchHash(b, 64<<10) }
func BenchmarkHash1M(b *testing.B)  { benchHash(b, 1<<20) }
func BenchmarkHash16M(b *testing.B) { benchHash(b, 16<<20) }

func benchHash(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(20))
	data := randomBlob(rng, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hash(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	data := randomBlob(rng, 64<<10)
	mut := append([]byte(nil), data...)
	for i := 0; i < 100; i++ {
		mut[rng.Intn(len(mut))] ^= 0xAA
	}
	h1, _ := Hash(data)
	h2, _ := Hash(mut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(h1, h2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatcher1000(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	m := NewMatcher(BackendWeighted)
	base := randomBlob(rng, 32<<10)
	for i := 0; i < 1000; i++ {
		v := append([]byte(nil), base...)
		for j := 0; j < i%500; j++ {
			v[rng.Intn(len(v))] ^= byte(i)
		}
		h, _ := Hash(v)
		if err := m.Add("v", h); err != nil {
			b.Fatal(err)
		}
	}
	q, _ := Hash(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Matches(q, 50); err != nil {
			b.Fatal(err)
		}
	}
}
