// BenchmarkIdentify measures the query cost of the indexed fingerprint
// search against the exhaustive scan it replaced, across catalog sizes —
// the scaling evidence behind DESIGN.md §9 and EXPERIMENTS.md §8. Catalogs
// are synthesized directly as digest strings (hashing 100k executables in a
// benchmark setup would dwarf the measurement): families of gram-sharing
// signatures over comparable block sizes, the same shape ingest produces.
package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

// benchDigest mutates a family base signature into a well-formed digest.
// Records of one family share most 7-grams (different builds of the same
// application); distinct families are gram-disjoint with overwhelming
// probability, so a query touches one family's worth of candidates no
// matter how many families the catalog holds.
func benchDigest(rng *rand.Rand, base []byte, alphabet string) string {
	s1 := append([]byte(nil), base...)
	for m := 0; m < 4; m++ {
		s1[rng.Intn(len(s1))] = alphabet[rng.Intn(len(alphabet))]
	}
	s2 := append([]byte(nil), base[:32]...)
	for m := 0; m < 2; m++ {
		s2[rng.Intn(len(s2))] = alphabet[rng.Intn(len(alphabet))]
	}
	bs := uint32(192) << rng.Intn(3)
	return fmt.Sprintf("%d:%s:%s", bs, s1, s2)
}

// benchCatalog builds n records spread over n/64 families, plus 32 queries
// drawn from the same families. Query candidate counts stay roughly flat in
// n — the regime the index targets; the exhaustive path still scores all n.
// Signatures are drawn from alphabet: a smaller one makes chance gram
// collisions between families more likely.
func benchCatalog(n int, alphabet string) ([]*postprocess.ProcessRecord, []Digests) {
	rng := rand.New(rand.NewSource(271828))
	families := max(16, n/64)
	bases := make([][]byte, families)
	for f := range bases {
		bases[f] = make([]byte, 64)
		for i := range bases[f] {
			bases[f][i] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	six := func(base []byte) [6]string {
		var d [6]string
		for c := range d {
			d[c] = benchDigest(rng, base, alphabet)
		}
		return d
	}
	records := make([]*postprocess.ProcessRecord, 0, n)
	for i := 0; i < n; i++ {
		d := six(bases[i%families])
		records = append(records, &postprocess.ProcessRecord{
			JobID: fmt.Sprintf("job-%d", i%97), Category: "user",
			Exe:      fmt.Sprintf("/appl/lammps/%03d/bin/lmp", i%families),
			ModulesH: d[0], CompilersH: d[1], ObjectsH: d[2],
			StringsH: d[4], SymbolsH: d[5],
			// Unique well-formed FILE_H so every record is admitted.
			FileH: fmt.Sprintf("192:%s:bench%d", bases[i%families][:40], i),
		})
	}
	queries := make([]Digests, 32)
	for i := range queries {
		d := six(bases[rng.Intn(families)])
		queries[i] = Digests{Modules: d[0], Compilers: d[1], Objects: d[2],
			File: d[3], Strings: d[4], Symbols: d[5]}
	}
	return records, queries
}

func BenchmarkIdentify(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		// Catalog synthesis lives inside the size sub-benchmark so a -bench
		// pattern selecting one size (the bench-gate does) never pays for the
		// others' setup; -short skips the 100k tier to keep smoke runs quick.
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if testing.Short() && n > 10000 {
				b.Skip("100k catalog skipped in -short mode")
			}
			records, queries := benchCatalog(n, b64)
			ix := NewFingerprintIndex(records)
			if ix.Len() != n {
				b.Fatalf("catalog admitted %d of %d records", ix.Len(), n)
			}
			b.Run("indexed", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ix.Search(queries[i%len(queries)], 10, ssdeep.BackendWeighted)
				}
			})
			b.Run("exhaustive", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ix.SearchExhaustive(queries[i%len(queries)], 10, ssdeep.BackendWeighted)
				}
			})
		})
	}
}

// BenchmarkIndexDerive measures NewFingerprintIndexFrom for the steady-state
// catalog refresh: a large unchanged base plus a small batch of new records.
func BenchmarkIndexDerive(b *testing.B) {
	const n = 10000
	records, _ := benchCatalog(n+64, b64)
	base := records[:n]
	ix := NewFingerprintIndex(base)
	b.Run(fmt.Sprintf("splice/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewFingerprintIndexFrom(ix, records)
		}
	})
	b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewFingerprintIndex(records)
		}
	})
}
