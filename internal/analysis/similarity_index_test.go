// Recall-vs-exhaustive equivalence of the indexed fingerprint search, and
// the incremental (spliced) index against a fresh build — the two
// guarantees DESIGN.md §9 rests on: pruning never loses a nonzero-scoring
// entry, and a generation derived by NewFingerprintIndexFrom ranks
// byte-identically to a full rebuild over the same records.
package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

const b64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// synthSig produces a signature that is a mutated copy of base — entries
// built from the same base share most 7-grams (the "same application,
// different build" population), while different bases are gram-disjoint
// with overwhelming probability.
func synthSig(rng *rand.Rand, base []byte, mutations, maxLen int) string {
	s := append([]byte(nil), base...)
	for m := 0; m < mutations; m++ {
		s[rng.Intn(len(s))] = b64[rng.Intn(64)]
	}
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	n := 1 + rng.Intn(len(s))
	return string(s[:n])
}

// synthFamilies is a population generator for the equivalence tests: nFam
// gram-sharing families of signatures plus fully random outliers, over a
// small set of mutually comparable block sizes, with malformed digests,
// empty characteristics, and short-signature exact duplicates sprinkled in.
type synthFamilies struct {
	rng   *rand.Rand
	bases [][]byte
}

func newSynthFamilies(rng *rand.Rand, nFam int) *synthFamilies {
	sf := &synthFamilies{rng: rng}
	for f := 0; f < nFam; f++ {
		base := make([]byte, 64)
		for i := range base {
			base[i] = b64[rng.Intn(64)]
		}
		sf.bases = append(sf.bases, base)
	}
	return sf
}

func (sf *synthFamilies) digest(family int) string {
	rng := sf.rng
	switch rng.Intn(12) {
	case 0:
		return "" // missing characteristic
	case 1:
		return "not-a-digest" // malformed
	case 2:
		return "3:ab:c" // short signatures: exact-shortcut territory
	}
	bs := uint32(192) << rng.Intn(3) // 192, 384, 768: all mutually comparable
	base := sf.bases[family%len(sf.bases)]
	s1 := synthSig(rng, base, rng.Intn(8), 64)
	s2 := synthSig(rng, base[:32], rng.Intn(4), 32)
	if rng.Intn(6) == 0 { // gram-disjoint outlier
		out := make([]byte, 40)
		for i := range out {
			out[i] = b64[rng.Intn(64)]
		}
		s1, s2 = string(out), string(out[:12])
	}
	return fmt.Sprintf("%d:%s:%s", bs, s1, s2)
}

func (sf *synthFamilies) record(i int) *postprocess.ProcessRecord {
	rng := sf.rng
	fam := rng.Intn(len(sf.bases))
	r := &postprocess.ProcessRecord{
		JobID:    fmt.Sprintf("job-%d", i%97),
		Category: "user",
		Exe:      fmt.Sprintf("/appl/lammps/builds/%03d/lmp", i),
		FileH:    fmt.Sprintf("%d:FILEH%svariant%d:tail%d", uint32(192)<<rng.Intn(3), sf.bases[fam][:20], i, i),
	}
	r.ModulesH = sf.digest(fam)
	r.CompilersH = sf.digest(fam)
	r.ObjectsH = sf.digest(fam)
	r.StringsH = sf.digest(fam)
	r.SymbolsH = sf.digest(fam)
	switch rng.Intn(10) {
	case 0:
		r.FileH = "truncated:" // malformed FILE_H is still a valid catalog key
	case 1:
		r.Category = "system" // never catalogued
	case 2:
		r.Exe = "/scratch/run/a.out" // UNKNOWN label: never catalogued
	}
	return r
}

func (sf *synthFamilies) query() Digests {
	fam := sf.rng.Intn(len(sf.bases))
	return Digests{
		Modules:   sf.digest(fam),
		Compilers: sf.digest(fam),
		Objects:   sf.digest(fam),
		File:      sf.digest(fam),
		Strings:   sf.digest(fam),
		Symbols:   sf.digest(fam),
	}
}

// TestSearchEquivalentToExhaustive is the core recall guarantee, across
// catalog sizes from tiny to 1500+ entries: indexed Search output is
// byte-identical to the retained exhaustive path for full listings and
// every top-K cut, over shared-gram, disjoint-gram, near-duplicate,
// malformed, and real hashed digest populations.
func TestSearchEquivalentToExhaustive(t *testing.T) {
	for _, size := range []int{0, 3, 10, 100, 1000, 1500} {
		t.Run(fmt.Sprintf("synthetic/n=%d", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + size)))
			sf := newSynthFamilies(rng, 1+size/20)
			records := make([]*postprocess.ProcessRecord, 0, size)
			for i := 0; i < size; i++ {
				records = append(records, sf.record(i))
			}
			ix := NewFingerprintIndex(records)
			queries := make([]Digests, 0, 24)
			for i := 0; i < 20; i++ {
				queries = append(queries, sf.query())
			}
			if len(records) > 0 {
				queries = append(queries, RecordDigests(records[0]), RecordDigests(records[len(records)-1]))
			}
			queries = append(queries, Digests{}, Digests{File: "not-a-digest"})
			assertSearchEquivalence(t, ix, queries)
		})
	}

	t.Run("real-hashes", func(t *testing.T) {
		body := func(app string, variant int) string {
			var b strings.Builder
			for i := 0; i < 400; i++ {
				fmt.Fprintf(&b, "%s section %d symbol_%d ", app, i, i*variant%31)
			}
			return b.String()
		}
		var records []*postprocess.ProcessRecord
		for i := 0; i < 60; i++ {
			app := []string{"lammps", "gromacs", "icon"}[i%3]
			content := body(app, 1+i/3)
			h := func(suffix string) string {
				d, err := ssdeep.HashString(content + suffix)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			records = append(records, &postprocess.ProcessRecord{
				JobID: fmt.Sprintf("job-%d", i), Category: "user",
				Exe:   fmt.Sprintf("/appl/%s/bin/%s%d", app, app, i),
				FileH: h("file"), ModulesH: h("modules"), CompilersH: h("compilers"),
				ObjectsH: h("objects"), StringsH: h("strings"), SymbolsH: h("symbols"),
			})
		}
		ix := NewFingerprintIndex(records)
		var queries []Digests
		for i := 0; i < len(records); i += 7 {
			queries = append(queries, RecordDigests(records[i]))
		}
		near, err := ssdeep.HashString(body("lammps", 2) + "file with a slightly different tail")
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, Digests{File: near}, Digests{Strings: near, Symbols: "bogus"})
		assertSearchEquivalence(t, ix, queries)
	})

	// The end-to-end benchmark's catalogue shape (bench/gen.go): a 32-letter
	// alphabet, all six digests mutated from one 64-character family base,
	// block sizes 192/384/768 — plus the digests the flat layout treats
	// specially. Built fresh, spliced and compacted, the three must agree
	// with the exhaustive scan and with each other.
	t.Run("benchmark-shaped", func(t *testing.T) {
		records, queries := benchCatalog(320, b64[:32])
		edge := func(i int, modules string) *postprocess.ProcessRecord {
			return &postprocess.ProcessRecord{
				JobID: "edge", Category: "user", Exe: fmt.Sprintf("/appl/gromacs/edge/gmx%d", i),
				FileH: fmt.Sprintf("3:edge%d:e", i), ModulesH: modules,
			}
		}
		records = append(records,
			edge(0, "96:ABCDEFGABCDEFGH:ABCDEFGABCDEFG"),                          // repeats a 7-gram
			edge(1, "96:ab:c"),                                                    // shorter than a gram: exact table only
			edge(2, fmt.Sprintf("%d:ABCDEFGHIJKL:MNOPQRSTUVWX", uint32(3)+1<<31))) // doubles to 6 in uint32
		edgeQueries := []Digests{
			{Modules: "96:xxABCDEFGxx:yy"},
			{Modules: "96:ab:c"},
			{Modules: "6:MNOPQRSTUVWX:zz"},
		}
		fresh := NewFingerprintIndex(records)
		spliced := NewFingerprintIndexFrom(NewFingerprintIndex(records[:300]), records)
		compacted := NewFingerprintIndexFrom(NewFingerprintIndex(records[:100]), records)
		if s := spliced.Stats(); s.Base != 300 || s.Extra != 23 {
			t.Fatalf("spliced stats = %+v, want base 300 + extra 23", s)
		}
		if s := compacted.Stats(); !sameShape(s, fresh.Stats()) {
			t.Fatalf("compacted stats = %+v, want the fresh build's %+v", s, fresh.Stats())
		}
		for qi, q := range edgeQueries {
			if rows := fresh.Search(q, 0, ssdeep.BackendWeighted); len(rows) != 1 || rows[0].Exe != records[320+qi].Exe {
				t.Errorf("edge query %d found %+v, want exactly %s", qi, rows, records[320+qi].Exe)
			}
		}
		queries = append(queries[:12], edgeQueries...)
		for name, ix := range map[string]*FingerprintIndex{"fresh": fresh, "spliced": spliced, "compacted": compacted} {
			t.Run(name, func(t *testing.T) {
				assertSearchEquivalence(t, ix, queries)
				for qi, q := range queries {
					if got, want := ix.Search(q, 0, ssdeep.BackendWeighted), fresh.Search(q, 0, ssdeep.BackendWeighted); !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: ranking differs from the fresh build's", qi)
					}
				}
			})
		}
	})
}

// sameShape reports whether two indexes have the same blocks and posting
// tables. Each build draws its own gram multiplier, so how far a table's last
// run spills past its homes — a few slots — differs between builds: Bytes
// may differ by 1 %.
func sameShape(a, b IndexStats) bool {
	ab, bb := a.Bytes, b.Bytes
	a.Bytes, b.Bytes = 0, 0
	return a == b && max(ab, bb) <= min(ab, bb)*101/100
}

// TestIndexBuildIndependentOfParallelism pins that the concurrent
// per-characteristic build is only a schedule: on one processor and on four
// it yields the same index shape and byte-identical rankings.
func TestIndexBuildIndependentOfParallelism(t *testing.T) {
	records, _ := benchCatalog(512, b64[:32])
	rng := rand.New(rand.NewSource(7))
	queries := make([]Digests, 200)
	for i := range queries {
		queries[i] = RecordDigests(records[rng.Intn(len(records))])
		if i%4 == 0 { // a partial query: some characteristics missing
			queries[i].Objects, queries[i].Symbols = "", ""
		}
	}
	build := func(procs int) (IndexStats, [][]SimilarityRow) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// Base build, splice and compaction all go through buildBlock.
		ix := NewFingerprintIndex(records[:256])
		ix = NewFingerprintIndexFrom(ix, records[:280])
		ix = NewFingerprintIndexFrom(ix, records)
		rows := make([][]SimilarityRow, len(queries))
		for i, q := range queries {
			rows[i] = ix.Search(q, 0, ssdeep.BackendWeighted)
		}
		return ix.Stats(), rows
	}
	stats1, rows1 := build(1)
	stats4, rows4 := build(4)
	if !sameShape(stats1, stats4) {
		t.Errorf("IndexStats differ: GOMAXPROCS=1 %+v, GOMAXPROCS=4 %+v", stats1, stats4)
	}
	for i := range queries {
		if len(rows1[i]) == 0 {
			t.Fatalf("query %d found nothing: the comparison is vacuous", i)
		}
		if !reflect.DeepEqual(rows1[i], rows4[i]) {
			t.Fatalf("query %d: rows differ between GOMAXPROCS=1 and GOMAXPROCS=4", i)
		}
	}
}

// SearchExhaustive is Search without candidate pruning: it scores every live
// entry. It is the oracle of the index-equivalence tests and the scaling
// baseline BenchmarkIdentify measures the index against.
func (ix *FingerprintIndex) SearchExhaustive(q Digests, topN int, backend ssdeep.Backend) []SimilarityRow {
	var qp [numChars]queryChar
	if !prepareQuery(q, &qp) {
		return nil
	}
	var rows []SimilarityRow
	ix.eachLive(func(e *fpEntry) {
		if row, ok := scoreEntry(e, &qp, backend); ok {
			rows = append(rows, row)
		}
	})
	return finishRows(rows, topN)
}

// assertSearchEquivalence holds Search to SearchExhaustive under every
// backend: the pruning argument (DESIGN.md §9) rests on the gate alone, so it
// must hold whichever distance scores the survivors.
func assertSearchEquivalence(t *testing.T, ix *FingerprintIndex, queries []Digests) {
	t.Helper()
	for _, backend := range []ssdeep.Backend{ssdeep.BackendWeighted, ssdeep.BackendDamerau, ssdeep.BackendLevenshtein} {
		for qi, q := range queries {
			full := ix.SearchExhaustive(q, 0, backend)
			for _, topN := range []int{0, 1, 5, len(full)} {
				got := ix.Search(q, topN, backend)
				want := ix.SearchExhaustive(q, topN, backend)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v, query %d topN=%d: indexed and exhaustive rankings diverge\n got  %+v\n want %+v",
						backend, qi, topN, got, want)
				}
			}
		}
	}
}

// TestIncrementalIndexMatchesFresh drives NewFingerprintIndexFrom through
// splices (append-only growth), tombstones (removed and replaced entries),
// and past the compaction threshold, asserting after every step that the
// derived index ranks byte-identically to a fresh full build over the same
// records — including queries that hit tombstoned ids.
func TestIncrementalIndexMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sf := newSynthFamilies(rng, 12)
	records := make([]*postprocess.ProcessRecord, 0, 600)
	for i := 0; i < 200; i++ {
		records = append(records, sf.record(i))
	}
	ix := NewFingerprintIndex(records)
	if s := ix.Stats(); s.Extra != 0 || s.Dead != 0 {
		t.Fatalf("fresh index stats = %+v, want all-base", s)
	}

	check := func(step string) {
		t.Helper()
		fresh := NewFingerprintIndex(records)
		if ix.Len() != fresh.Len() {
			t.Fatalf("%s: Len = %d, fresh = %d", step, ix.Len(), fresh.Len())
		}
		var queries []Digests
		for i := 0; i < 15; i++ {
			queries = append(queries, sf.query())
		}
		for i := 0; i < len(records); i += 37 {
			queries = append(queries, RecordDigests(records[i]))
		}
		for qi, q := range queries {
			inc := ix.Search(q, 0, ssdeep.BackendWeighted)
			ful := fresh.Search(q, 0, ssdeep.BackendWeighted)
			if !reflect.DeepEqual(inc, ful) {
				t.Fatalf("%s query %d: incremental and fresh rankings diverge\n inc   %+v\n fresh %+v",
					step, qi, inc, ful)
			}
			if exh := ix.SearchExhaustive(q, 0, ssdeep.BackendWeighted); !reflect.DeepEqual(inc, exh) {
				t.Fatalf("%s query %d: incremental index disagrees with its own exhaustive scan", step, qi)
			}
		}
	}

	// Append-only growth within the slack: must splice, not rebuild.
	for i := 200; i < 240; i++ {
		records = append(records, sf.record(i))
	}
	prevBase := ix.Stats().Base
	ix = NewFingerprintIndexFrom(ix, records)
	if s := ix.Stats(); s.Base != prevBase || s.Extra == 0 {
		t.Fatalf("append splice stats = %+v, want base kept (%d) and extra populated", s, prevBase)
	}
	check("append-splice")

	// Replace some entries (same FILE_H, new content) and drop others:
	// tombstones appear, rankings still match a fresh build.
	replaced := 0
	kept := records[:0]
	for i, r := range records {
		switch i % 29 {
		case 0: // drop
		case 1: // replace content under the same FILE_H
			nr := *r
			nr.SymbolsH = sf.digest(3)
			nr.Exe = r.Exe + "-rebuilt"
			kept = append(kept, &nr)
			replaced++
		default:
			kept = append(kept, r)
		}
	}
	records = kept
	ix = NewFingerprintIndexFrom(ix, records)
	if s := ix.Stats(); s.Dead == 0 {
		t.Fatalf("replacement splice stats = %+v, want tombstones", s)
	}
	check("tombstone-splice")

	// Churn past a quarter of the base: the derivation must compact back to
	// a single base block and still rank identically.
	for i := 1000; i < 1000+prevBase/2; i++ {
		records = append(records, sf.record(i))
	}
	ix = NewFingerprintIndexFrom(ix, records)
	if s := ix.Stats(); s.Dead != 0 || s.Extra != 0 {
		t.Fatalf("post-compaction stats = %+v, want single base block", s)
	}
	check("compaction")

	// A FILE_H that vanished and later returns must be re-admitted even
	// though an earlier generation tombstoned it.
	victim := records[10]
	records = append(records[:10], records[11:]...)
	ix = NewFingerprintIndexFrom(ix, records)
	check("vanish")
	records = append(records, victim)
	ix = NewFingerprintIndexFrom(ix, records)
	check("return")
}

// TestSearchRankingIndependentOfConstruction pins the canonical total order:
// fully tied rows (same Avg, Label, Exe — different digests) sort the same
// whether the catalog was built fresh in record order or derived
// incrementally with a different internal layout.
func TestSearchRankingIndependentOfConstruction(t *testing.T) {
	shared, err := ssdeep.HashString(strings.Repeat("an executable body with plenty of shared structure ", 40))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, fileH string) *postprocess.ProcessRecord {
		return &postprocess.ProcessRecord{
			JobID: fmt.Sprintf("j%d", i), Category: "user",
			Exe:   "/appl/lammps/lmp", // identical Exe: ties on Label and Exe
			FileH: fileH, StringsH: shared,
		}
	}
	// Distinct FILE_H values, same everything else: rows tie on Avg, Label,
	// Exe, and all six scores; only the hidden FILE_H tiebreak orders them.
	r1 := mk(1, "3:aaaxyzb:t1")
	r2 := mk(2, "3:zzzxyzb:t2")
	fwd := NewFingerprintIndex([]*postprocess.ProcessRecord{r1, r2})
	rev := NewFingerprintIndex([]*postprocess.ProcessRecord{r2, r1})
	inc := NewFingerprintIndexFrom(fwd, []*postprocess.ProcessRecord{r2, r1})
	q := Digests{Strings: shared}
	want := fwd.Search(q, 0, ssdeep.BackendWeighted)
	if len(want) != 2 {
		t.Fatalf("want 2 tied rows, got %+v", want)
	}
	for name, ix := range map[string]*FingerprintIndex{"reversed": rev, "incremental": inc} {
		if got := ix.Search(q, 0, ssdeep.BackendWeighted); !reflect.DeepEqual(got, want) {
			t.Errorf("%s construction ranks differently:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

// TestSearchRanksCloserVariantsHigher: under every backend, a query finds
// its own binary at 100 and ranks a lightly mutated build above a heavily
// mutated one — the ranking the identify endpoint serves.
func TestSearchRanksCloserVariantsHigher(t *testing.T) {
	// blob is binary-like content: repeated instruction-ish words separated
	// by random bytes, so mutated copies keep most of their 7-grams.
	blob := func(rng *rand.Rand, n int) []byte {
		words := []string{"mov", "call", "ret", "push", "pop", "xor", "lea", "jmp",
			"climate", "solver", "matrix", "kernel", "flux", "grid", "halo"}
		var b []byte
		for len(b) < n {
			w := words[rng.Intn(len(words))]
			for r := rng.Intn(4); r >= 0; r-- {
				b = append(b, w...)
				b = append(b, byte(rng.Intn(256)))
			}
		}
		return b[:n]
	}
	hash := func(data []byte) string {
		h, err := ssdeep.Hash(data)
		if err != nil {
			t.Fatalf("Hash: %v", err)
		}
		return h
	}
	for _, backend := range []ssdeep.Backend{ssdeep.BackendWeighted, ssdeep.BackendDamerau, ssdeep.BackendLevenshtein} {
		t.Run(backend.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			base := blob(rng, 40000)
			variant := func(nmut int) []byte {
				v := append([]byte(nil), base...)
				for i := 0; i < nmut; i++ {
					v[rng.Intn(len(v))] ^= byte(1 + rng.Intn(255))
				}
				return v
			}
			h0 := hash(base)
			files := map[string]string{
				"exact":     h0,
				"near":      hash(variant(10)),
				"far":       hash(variant(3000)),
				"unrelated": hash(blob(rand.New(rand.NewSource(999)), 40000)),
			}
			var records []*postprocess.ProcessRecord
			for _, name := range []string{"exact", "near", "far", "unrelated"} {
				records = append(records, &postprocess.ProcessRecord{
					JobID: "1", Category: "user", Exe: "/appl/lammps/" + name + "/lmp", FileH: files[name],
				})
			}
			ix := NewFingerprintIndex(records)
			if ix.Len() != 4 {
				t.Fatalf("Len = %d, want 4", ix.Len())
			}

			rows := ix.Search(Digests{File: h0}, 0, backend)
			if len(rows) < 2 {
				t.Fatalf("want at least 2 matches, got %d: %+v", len(rows), rows)
			}
			if rows[0].Exe != "/appl/lammps/exact/lmp" || rows[0].FileS != 100 {
				t.Errorf("best match = %+v, want exact/100", rows[0])
			}
			scoreOf := func(name string) int {
				for _, r := range rows {
					if r.Exe == "/appl/lammps/"+name+"/lmp" {
						return r.FileS
					}
				}
				return 0
			}
			if scoreOf("near") <= scoreOf("far") {
				t.Errorf("near (%d) should outscore far (%d)", scoreOf("near"), scoreOf("far"))
			}
			if best := ix.Search(Digests{File: h0}, 1, backend); len(best) != 1 || best[0] != rows[0] {
				t.Errorf("top-1 = %+v, want %+v", best, rows[0])
			}
		})
	}
}
