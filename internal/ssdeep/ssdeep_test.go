package ssdeep

import (
	"bytes"
	"math/bits"
	"math/rand"
	"strings"
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

// hashRetry is the block-size search as one CTPH pass per candidate block
// size: guess the block size from the length, halve and re-hash while the
// first signature is shorter than half the cap. It is the oracle the
// one-pass Hasher is held to.
func hashRetry(data []byte) Digest {
	bs := uint32(blockMin)
	for uint64(bs)*spamsumLength < uint64(len(data)) {
		bs *= 2
	}
	for {
		sig1, sig2 := digestOnce(data, bs)
		if bs > blockMin && len(sig1) < spamsumLength/2 {
			bs /= 2
			continue
		}
		return Digest{BlockSize: bs, Sig1: sig1, Sig2: sig2}
	}
}

// retries is how many times hashRetry halves the block size for data.
func retries(data []byte) int {
	d := hashRetry(data)
	bs := uint32(blockMin)
	for uint64(bs)*spamsumLength < uint64(len(data)) {
		bs *= 2
	}
	return bits.Len32(bs/d.BlockSize) - 1
}

// digestOnce runs a single CTPH pass with trigger block size bs, returning
// the two signatures. The last slot of a signature at its cap is rewritten
// by every later trigger, and its hash no longer resets.
func digestOnce(data []byte, bs uint32) (string, string) {
	var sig1 [spamsumLength]byte
	var sig2 [spamsumLength / 2]byte
	j, k := 0, 0
	h1, h2 := uint32(hashInit), uint32(hashInit)
	var roll oracleRoll
	var rh uint32
	bs2 := bs * 2
	for _, c := range data {
		h1 = (h1 * hashPrime) ^ uint32(c)
		h2 = (h2 * hashPrime) ^ uint32(c)
		rh = roll.roll(c)
		if rh%bs == bs-1 {
			sig1[j] = base64Chars[h1%64]
			if j < spamsumLength-1 {
				h1 = hashInit
				j++
			}
			if rh%bs2 == bs2-1 {
				sig2[k] = base64Chars[h2%64]
				if k < spamsumLength/2-1 {
					h2 = hashInit
					k++
				}
			}
		}
	}
	if rh != 0 {
		sig1[j] = base64Chars[h1%64]
		j++
		sig2[k] = base64Chars[h2%64]
		k++
	}
	return string(sig1[:j]), string(sig2[:k])
}

// oracleRoll is the rolling hash with its window kept as an array.
type oracleRoll struct {
	window     [rollingWindow]byte
	h1, h2, h3 uint32
	n          uint32
}

func (rs *oracleRoll) roll(c byte) uint32 {
	rs.h2 -= rs.h1
	rs.h2 += rollingWindow * uint32(c)
	rs.h1 += uint32(c)
	rs.h1 -= uint32(rs.window[rs.n%rollingWindow])
	rs.window[rs.n%rollingWindow] = c
	rs.n++
	rs.h3 <<= 5
	rs.h3 ^= uint32(c)
	return rs.h1 + rs.h2 + rs.h3
}

// onePassSeeds are the edge inputs of the one-pass kernel: lengths around
// the block-size guess's steps, inputs that make the search retry, levels
// with 31, 32, 63 and 64 triggers, and a rolling sum that ends at 0.
func onePassSeeds() [][]byte {
	rng := rand.New(rand.NewSource(30))
	var seeds [][]byte
	for _, k := range []int{0, 1, 2, 5, 9} {
		n := blockMin << k * spamsumLength
		for _, m := range []int{n - 1, n, n + 1} {
			seeds = append(seeds, randomBlob(rng, m))
		}
	}
	// Retries: a structured blob retries rarely; a short-period text and
	// runs of one byte retry several times.
	seeds = append(seeds,
		randomBlob(rng, 5000),
		[]byte(strings.Repeat("abcdefghij", 700)),
		bytes.Repeat([]byte{'x'}, 4000),
		append(bytes.Repeat([]byte{0}, 3000), randomBlob(rng, 300)...))
	// Levels with exactly 31, 32, 63 and 64 triggers, where they supply
	// the first or the second signature: level 1 of a 192-byte input (its
	// search starts at level 0, so writeBase hashes it), levels 2 and 3 of
	// a 768-byte one (it starts at level 2).
	for _, want := range triggerCounts {
		for _, at := range []struct{ level, n int }{{1, 192}, {2, 768}, {3, 768}} {
			seeds = append(seeds, withTriggers(rng, at.level, want, at.n))
		}
	}
	// A rolling sum that ends at 0: seven zero bytes empty the window, and
	// h3, shifted five bits a byte, is clear of the bytes before them.
	seeds = append(seeds, append(randomBlob(rng, 700), make([]byte, 7)...), make([]byte, 50))
	return seeds
}

// triggerCounts are the trigger counts at the signature caps: one below
// and at the second signature's, one below and at the first's.
var triggerCounts = []int{31, 32, 63, 64}

// withTriggers returns n random bytes on which level (block size
// blockMin·2^level) triggers exactly want times, spread evenly: each byte
// is drawn until it triggers the level or not, as the spread asks so far.
// A position where no byte can — the rolling sum mod 3 does not depend on
// the byte while h3's low three bits are 0 — passes its trigger on to the
// next; the spread ends 16 bytes early so the last one has room.
func withTriggers(rng *rand.Rand, level, want, n int) []byte {
	bs := uint32(blockMin) << level
	data := make([]byte, 0, n)
	var roll oracleRoll
	got := 0
	for i := 0; i < n; i++ {
		trigger := got < min(want, (i+1)*want/(n-16)) // 16 bytes of slack at the end
		var c byte
		for try := 0; try < 1024; try++ {
			c = byte(rng.Intn(256))
			probe := roll
			if (probe.roll(c)%bs == bs-1) == trigger {
				break
			}
		}
		if roll.roll(c)%bs == bs-1 {
			got++
		}
		data = append(data, c)
	}
	return data
}

// triggers counts level's triggers over data.
func triggers(data []byte, level int) int {
	bs := uint32(blockMin) << level
	var roll oracleRoll
	n := 0
	for _, c := range data {
		if roll.roll(c)%bs == bs-1 {
			n++
		}
	}
	return n
}

// TestOnePassSeedsCoverTheEdges keeps FuzzHashOnePass's seeds at the edges
// they are there for.
func TestOnePassSeedsCoverTheEdges(t *testing.T) {
	seeds := onePassSeeds()
	tried := map[int]int{}
	zeroSum := false
	counts := map[[2]int]bool{} // (level, triggers)
	for _, data := range seeds {
		tried[min(retries(data), 2)]++
		var roll oracleRoll
		for _, c := range data {
			roll.roll(c)
		}
		zeroSum = zeroSum || len(data) > 0 && roll.h1+roll.h2+roll.h3 == 0
		for level := 1; level <= 3; level++ {
			counts[[2]int{level, triggers(data, level)}] = true
		}
	}
	if tried[0] == 0 || tried[1] == 0 || tried[2] == 0 {
		t.Errorf("seeds retry %v times (0, 1, 2 or more): want each", tried)
	}
	if !zeroSum {
		t.Error("no seed ends with a rolling sum of 0")
	}
	for _, want := range triggerCounts {
		for level := 1; level <= 3; level++ {
			if !counts[[2]int{level, want}] {
				t.Errorf("no seed has %d triggers at level %d", want, level)
			}
		}
	}
}

func TestHashMatchesRetryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inputs := onePassSeeds()
	for i := 0; i < 300; i++ {
		n := rng.Intn(1 << uint(rng.Intn(18)))
		switch i % 3 {
		case 0:
			inputs = append(inputs, randomBlob(rng, n))
		case 1:
			b := make([]byte, n)
			rng.Read(b)
			inputs = append(inputs, b)
		default:
			period := 1 + rng.Intn(40)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte(j%period) * byte(rng.Intn(2))
			}
			inputs = append(inputs, b)
		}
	}
	tried := map[int]int{}
	for _, data := range inputs {
		want := hashRetry(data)
		got, err := HashDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("len %d: one pass %v, oracle %v", len(data), got, want)
		}
		var h Hasher
		for rest := data; len(rest) > 0; {
			n := min(1+rng.Intn(700), len(rest))
			h.Write(rest[:n])
			rest = rest[n:]
		}
		if streamed, _ := h.Digest(); streamed != want {
			t.Fatalf("len %d: streamed %v, oracle %v", len(data), streamed, want)
		}
		tried[retries(data)]++
	}
	if tried[0] == 0 || tried[1] == 0 || len(tried) < 4 {
		t.Errorf("inputs retried %v times: want 0, 1 and several", tried)
	}
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
