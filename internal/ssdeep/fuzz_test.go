package ssdeep

import (
	"strings"
	"testing"
)

// FuzzParseDigest: ParseDigest must never panic, and any digest it accepts
// must render back (String) to a form that re-parses to the identical
// digest — the property the catalog relies on when it stores digests as
// strings and re-parses them at query time. Accepted digests must also be
// comparable against themselves without error.
func FuzzParseDigest(f *testing.F) {
	f.Add("3:abc:def")
	f.Add("3:ab:cd,somefile.bin")
	f.Add("12288:hVd7PBXPa:hV")
	f.Add("0:a:b")
	f.Add("4294967296:a:b") // block size overflows uint32
	f.Add(":missing:size")
	f.Add("3:colons:in:sig2:tail")
	f.Add("not a digest")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDigest(s)
		if err != nil {
			return
		}
		if d.BlockSize == 0 {
			t.Fatalf("accepted digest %q with block size 0", s)
		}
		d2, err := ParseDigest(d.String())
		if err != nil {
			t.Fatalf("ParseDigest(%q).String() = %q does not re-parse: %v", s, d.String(), err)
		}
		if d2 != d {
			t.Fatalf("round-trip mismatch: %+v vs %+v", d, d2)
		}
		score, err := Compare(d.String(), d.String())
		if err != nil {
			t.Fatalf("self-compare of accepted digest %q failed: %v", d.String(), err)
		}
		if score < 0 || score > 100 {
			t.Fatalf("self-compare score %d outside [0, 100]", score)
		}
	})
}

// FuzzIndexCandidates holds the flat gram table to the map-based oracle it
// replaced: over a fuzzed digest population (one digest per line of corpus)
// and fuzzed queries (one per line of queries, plus every indexed digest),
// NewIndex must collect exactly the oracle's candidate ids, in the same
// order. Seeds cover wrap-around block sizes, gram-less twins, grams repeated
// inside one signature and signatures sharing grams across buckets.
func FuzzIndexCandidates(f *testing.F) {
	f.Add("96:ABCDEFGABCDEFGH:ABCDEFGABCDEFG\n96:ABCDEFGH:zz\n96:ab:c\n96:ab:c\n192:ABCDEFGH:ABCDEFG",
		"192:ABCDEFGxyz:zz\n48:zz:ABCDEFGxyz\n96:ab:c")
	f.Add("2147483651:AAAABBBBCCCCDDDD:kkkkllll\n2147483651:ABCDEFGHIJKL:MNOPQRSTUVWX\n6:abc:ab\n3::",
		"6:kkkkllllXXXX:AAAABBBB\n6:MNOPQRSTUVWX:zz\n4294967295:ABCDEFGHIJ:x")
	f.Add("3:hVd7PBXPaHVd7PBXPa:hV\n6:Vd7PBXPaHVd7:hVd7PBXPa\n12:PBXPaHVd7PBX:Vd7PBXPaH",
		"3:hVd7PBXPa:hVd7PBXPaHVd7\n6:hVd7PBXPa:x")
	f.Add("", "3:abcdefg:hijklmn")
	f.Fuzz(func(t *testing.T, corpus, queries string) {
		var entries []IndexEntry
		var qs []PreparedDigest
		for _, line := range strings.Split(corpus, "\n") {
			if p, err := ParsePrepared(line); err == nil && len(entries) < 256 {
				entries = append(entries, IndexEntry{ID: int32(len(entries)), Digest: p})
				qs = append(qs, p)
			}
		}
		for _, line := range strings.Split(queries, "\n") {
			if p, err := ParsePrepared(line); err == nil && len(qs) < 512 {
				qs = append(qs, p)
			}
		}
		mustMatchOracle(t, "fuzz", entries, qs)
	})
}

// FuzzHashOnePass holds the one-pass Hasher to hashRetry, the block-size
// search it replaced: the digest of data must equal the oracle's, and a
// Hasher fed the same bytes in pieces split at the fuzzed cut points (taken
// from cuts, two bytes per cut) must produce the one-shot digest. The seeds
// sit at the edges: lengths 3·2^k·64 ± 1, inputs that retry 0, 1 and several
// times, levels with 31, 32, 63 and 64 triggers, and a rolling sum that ends
// at 0.
func FuzzHashOnePass(f *testing.F) {
	for _, seed := range onePassSeeds() {
		f.Add(seed, []byte{0, 5, 1, 0})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		want := hashRetry(data)
		got, err := HashDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("one pass %v, oracle %v (len %d)", got, want, len(data))
		}
		var h Hasher
		rest := data
		for i := 0; i+1 < len(cuts) && len(rest) > 0; i += 2 {
			n := min(int(cuts[i])<<8|int(cuts[i+1]), len(rest))
			if n == 1 && i%4 == 0 {
				h.WriteByte(rest[0])
			} else {
				h.Write(rest[:n])
			}
			rest = rest[n:]
		}
		h.WriteString(string(rest))
		streamed, err := h.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if streamed != want {
			t.Fatalf("streamed %v, one shot %v (len %d, cuts %v)", streamed, want, len(data), cuts)
		}
	})
}
