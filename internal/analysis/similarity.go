package analysis

import (
	"slices"
	"sync"

	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

// SimilarityRow is one Table 7 row: the six per-characteristic fuzzy-hash
// scores of a known executable against the unknown baseline, plus their
// average.
type SimilarityRow struct {
	Label      string
	Exe        string
	Avg        float64
	ModulesS   int // MO_H
	CompilersS int // CO_H
	ObjectsS   int // OB_H
	FileS      int // FI_H
	StringsS   int // ST_H
	SymbolsS   int // SY_H

	// file is the catalog entry's FILE_H — unique per entry — carried as the
	// final ranking tiebreak so a ranking is a total order independent of
	// catalog construction order (fresh, incremental, or indexed builds of
	// the same catalog sort identically).
	file string
}

// numChars is the number of fingerprint characteristics (the six fuzzy
// hashes of the wire schema).
const numChars = 6

// Digests is a query against the fingerprint index: the six characteristic
// fuzzy hashes of an executable, any subset of which may be empty. It is
// what a SIREN identify request carries — no process context, just the
// hashes a scanner computed from an unknown binary.
type Digests struct {
	Modules   string // MO_H
	Compilers string // CO_H
	Objects   string // OB_H
	File      string // FI_H
	Strings   string // ST_H
	Symbols   string // SY_H
}

// RecordDigests extracts a record's six characteristic digests — the query
// the offline Table 7 search issues for its unknown baseline record.
func RecordDigests(r *postprocess.ProcessRecord) Digests {
	return Digests{
		Modules:   r.ModulesH,
		Compilers: r.CompilersH,
		Objects:   r.ObjectsH,
		File:      r.FileH,
		Strings:   r.StringsH,
		Symbols:   r.SymbolsH,
	}
}

// Empty reports whether no characteristic digest is set.
func (q Digests) Empty() bool {
	return q == Digests{}
}

// array lists the digests in canonical characteristic order (the order of
// the SimilarityRow score columns).
func (q Digests) array() [numChars]string {
	return [numChars]string{q.Modules, q.Compilers, q.Objects, q.File, q.Strings, q.Symbols}
}

// Fingerprint is one catalog entry of the index: a known (labelled) user
// executable's six characteristic digests.
type Fingerprint struct {
	Label     string
	Exe       string
	Modules   string
	Compilers string
	Objects   string
	File      string
	Strings   string
	Symbols   string
}

// preparedChar is one characteristic digest parsed and clamped once at
// construction; ok is false for empty or malformed digests, which score 0
// against everything without aborting the entry's other characteristics.
type preparedChar struct {
	p  ssdeep.PreparedDigest
	ok bool
}

// prepareChar parses and clamps one characteristic digest.
func prepareChar(d string) preparedChar {
	if d == "" {
		return preparedChar{}
	}
	p, err := ssdeep.ParsePrepared(d)
	return preparedChar{p: p, ok: err == nil}
}

// fpEntry is one catalog entry with its parse-once comparison state.
type fpEntry struct {
	fp    Fingerprint
	rec   *postprocess.ProcessRecord // source record: fast identity check on carry
	chars [numChars]preparedChar
}

// fpBlock is an immutable slab of entries plus their per-characteristic
// candidate indexes. Ids inside the indexes are global FingerprintIndex ids
// (block-local position plus the block's id offset).
type fpBlock struct {
	fps []fpEntry
	idx [numChars]*ssdeep.Index
}

// buildBlock indexes entries, one goroutine per characteristic: the six
// indexes share nothing but the read-only entries, so base builds,
// compaction rebuilds and per-refresh extra blocks all use whatever cores
// are idle, and each index comes out the same however they are scheduled.
func buildBlock(entries []fpEntry, idBase int32) *fpBlock {
	b := &fpBlock{fps: entries}
	var wg sync.WaitGroup
	for c := range b.idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ies := make([]ssdeep.IndexEntry, 0, len(entries))
			for i := range entries {
				if ch := &entries[i].chars[c]; ch.ok {
					ies = append(ies, ssdeep.IndexEntry{ID: idBase + int32(i), Digest: ch.p})
				}
			}
			b.idx[c] = ssdeep.NewIndex(ies)
		}()
	}
	wg.Wait()
	return b
}

// FingerprintIndex is the labelled fingerprint catalog a similarity search
// ranks against: one entry per distinct known user binary, deduplicated by
// FILE_H. Both recognition paths are built on it — the offline Table 7
// search (Dataset.SimilaritySearch) constructs one per call, and the online
// identify endpoint keeps one per catalog generation — so the ranking math
// exists exactly once. The index is immutable after construction and safe
// for concurrent Search calls.
//
// Search is index-bound, not catalog-size-bound: each characteristic keeps a
// block-size-bucketed, gram-inverted ssdeep.Index (DESIGN.md §9), so scoring
// touches only entries that share at least one 7-gram with the query — every
// other entry provably scores zero under the ssdeep common-substring
// precondition. The tests hold it to SearchExhaustive, the full linear scan
// (similarity_index_test.go): both produce identical rankings.
//
// The entry population is split into an immutable base block — shared, never
// copied, across the generations NewFingerprintIndexFrom derives — plus a
// small per-generation extra block and a tombstone set over base ids, so an
// incremental catalog refresh splices new fingerprints in without re-parsing
// or re-posting the unchanged ones.
type FingerprintIndex struct {
	base  *fpBlock // shared across derived generations; ids [0, len(base.fps))
	dead  []bool   // tombstoned base ids; nil when none
	deadN int
	extra *fpBlock // this index's own appendix; ids offset by len(base.fps)
}

// IndexStats describe the physical shape of the index.
type IndexStats struct {
	Base  int // entries in the shared base block (tombstoned included)
	Dead  int // tombstoned base entries
	Extra int // entries in this generation's extra block

	// The posting tables of both blocks, summed over the six
	// characteristics (ssdeep.IndexSize).
	Grams    int   // distinct grams
	Postings int   // (gram, entry) postings
	Bytes    int64 // bytes held by gram slots and id rows
}

// candPool recycles candidate-set scratch across Search calls (all indexes
// share it; mark tables size to the largest live catalog).
var candPool = sync.Pool{New: func() any { return new(ssdeep.CandidateSet) }}

// selected is one fingerprint chosen from a record list, pre-labelling.
type selected struct {
	rec   *postprocess.ProcessRecord
	label string
}

// selectFingerprints applies the catalog admission rule, in record order:
// user-category records carrying a FILE_H, deduplicated by FILE_H (first
// labelled occurrence wins), excluding UNKNOWN-labelled executables — the
// search ranks only known instances against the unknown. An
// UNKNOWN-labelled record does not claim its FILE_H: a later labelled
// record sharing the binary still enters the index.
func selectFingerprints(records []*postprocess.ProcessRecord) []selected {
	var out []selected
	seen := make(map[string]bool)
	for _, r := range records {
		if r.Category != "user" || r.FileH == "" || seen[r.FileH] {
			continue
		}
		label := DeriveLabel(r.Exe)
		if label == UnknownLabel {
			continue
		}
		seen[r.FileH] = true
		out = append(out, selected{rec: r, label: label})
	}
	return out
}

// prepareEntry parses and clamps a selected record's six digests once —
// queries never re-parse catalog digests.
func prepareEntry(s selected) fpEntry {
	r := s.rec
	e := fpEntry{
		fp: Fingerprint{
			Label:     s.label,
			Exe:       r.Exe,
			Modules:   r.ModulesH,
			Compilers: r.CompilersH,
			Objects:   r.ObjectsH,
			File:      r.FileH,
			Strings:   r.StringsH,
			Symbols:   r.SymbolsH,
		},
		rec: r,
	}
	for c, d := range RecordDigests(r).array() {
		e.chars[c] = prepareChar(d)
	}
	return e
}

// sameEntry reports whether a catalogued entry and a selected record carry
// the same fingerprint content. The record-pointer fast path covers jobs the
// catalog carried forward unchanged; re-consolidated jobs produce new record
// pointers and fall back to comparing the digest strings and Exe (the label
// is derived from Exe, so equal Exe implies equal label).
func sameEntry(e *fpEntry, s selected) bool {
	if e.rec == s.rec {
		return true
	}
	r := s.rec
	return e.fp.Exe == r.Exe &&
		e.fp.Modules == r.ModulesH &&
		e.fp.Compilers == r.CompilersH &&
		e.fp.Objects == r.ObjectsH &&
		e.fp.File == r.FileH &&
		e.fp.Strings == r.StringsH &&
		e.fp.Symbols == r.SymbolsH
}

// NewFingerprintIndex builds the index from consolidated records.
func NewFingerprintIndex(records []*postprocess.ProcessRecord) *FingerprintIndex {
	return NewFingerprintIndexFrom(nil, records)
}

// NewFingerprintIndexFrom builds the index for records, reusing prev (an
// index over an earlier revision of the same catalog, typically the previous
// generation's) where possible: fingerprints whose content is unchanged keep
// their parsed digests and — for base-block entries — their posting lists,
// vanished or altered fingerprints are tombstoned, and new ones are indexed
// into a fresh extra block. When the accumulated churn (tombstones + extra)
// crosses a quarter of the base, everything is compacted into a new base
// block (still reusing parsed digests). prev is never modified; with prev ==
// nil this is a full build. The resulting index ranks identically to a full
// build over the same records.
func NewFingerprintIndexFrom(prev *FingerprintIndex, records []*postprocess.ProcessRecord) *FingerprintIndex {
	sel := selectFingerprints(records)
	if prev != nil {
		if ix, ok := prev.splice(sel); ok {
			return ix
		}
	}
	return buildFull(prev, sel)
}

// compactionSlack is the churn budget before a derived index is rebuilt into
// a single base block: tombstones plus extra entries may reach a quarter of
// the base (but always at least compactionSlack, so small catalogs are not
// rebuilt on every refresh).
const compactionSlack = 64

// splice derives an index for sel from prev without touching prev's base
// postings. ok is false when churn crossed the compaction threshold and the
// caller should rebuild.
func (ix *FingerprintIndex) splice(sel []selected) (*FingerprintIndex, bool) {
	bySel := make(map[string]int, len(sel))
	for i := range sel {
		bySel[sel[i].rec.FileH] = i
	}
	taken := make([]bool, len(sel))

	next := &FingerprintIndex{base: ix.base, dead: ix.dead, deadN: ix.deadN}
	baseN := len(ix.base.fps)
	copied := false
	for id := range ix.base.fps {
		if ix.dead != nil && ix.dead[id] {
			continue
		}
		e := &ix.base.fps[id]
		if si, ok := bySel[e.fp.File]; ok && sameEntry(e, sel[si]) {
			taken[si] = true
			continue
		}
		// Vanished or replaced: tombstone (copy-on-write — prev's slice is
		// shared with live queries on older generations).
		if !copied {
			next.dead = make([]bool, baseN)
			copy(next.dead, ix.dead)
			copied = true
		}
		next.dead[id] = true
		next.deadN++
	}

	// Carried extra entries keep their parsed state but are re-posted into
	// this generation's extra block (extra indexes are never shared, so they
	// can be rebuilt compactly each time).
	var entries []fpEntry
	for i := range ix.extra.fps {
		e := &ix.extra.fps[i]
		if si, ok := bySel[e.fp.File]; ok && sameEntry(e, sel[si]) {
			taken[si] = true
			entries = append(entries, *e)
		}
	}
	fresh := 0
	for i := range sel {
		if !taken[i] {
			fresh++
		}
	}
	// Checked before parsing anything: a first refresh (prev is the empty
	// boot index) always lands here, and buildFull parses the entries itself.
	if next.deadN+len(entries)+fresh > max(compactionSlack, baseN/4) {
		return nil, false
	}
	for i := range sel {
		if !taken[i] {
			entries = append(entries, prepareEntry(sel[i]))
		}
	}
	next.extra = buildBlock(entries, int32(baseN))
	return next, true
}

// buildFull constructs a single-base index over sel, reusing prev's parsed
// entries for unchanged fingerprints when prev is given.
func buildFull(prev *FingerprintIndex, sel []selected) *FingerprintIndex {
	var reuse map[string]*fpEntry
	if prev != nil {
		reuse = make(map[string]*fpEntry, prev.Len())
		prev.eachLive(func(e *fpEntry) {
			reuse[e.fp.File] = e
		})
	}
	entries := make([]fpEntry, 0, len(sel))
	for _, s := range sel {
		if e, ok := reuse[s.rec.FileH]; ok && sameEntry(e, s) {
			entries = append(entries, *e)
		} else {
			entries = append(entries, prepareEntry(s))
		}
	}
	return &FingerprintIndex{
		base:  buildBlock(entries, 0),
		extra: buildBlock(nil, int32(len(entries))),
	}
}

// eachLive visits every live entry in id order.
func (ix *FingerprintIndex) eachLive(fn func(e *fpEntry)) {
	for id := range ix.base.fps {
		if ix.dead == nil || !ix.dead[id] {
			fn(&ix.base.fps[id])
		}
	}
	for i := range ix.extra.fps {
		fn(&ix.extra.fps[i])
	}
}

// Len reports the number of distinct live fingerprints in the index.
func (ix *FingerprintIndex) Len() int {
	return len(ix.base.fps) - ix.deadN + len(ix.extra.fps)
}

// Stats reports the physical block shape (base/tombstones/extra) — how much
// of the index the last derivation carried versus rebuilt — and the size of
// its posting tables.
func (ix *FingerprintIndex) Stats() IndexStats {
	var size ssdeep.IndexSize
	for _, b := range [2]*fpBlock{ix.base, ix.extra} {
		for _, idx := range b.idx {
			size.Add(idx.Size())
		}
	}
	return IndexStats{
		Base: len(ix.base.fps), Dead: ix.deadN, Extra: len(ix.extra.fps),
		Grams: size.Grams, Postings: size.Postings, Bytes: size.Bytes,
	}
}

// numIDs is the id-space size (live and tombstoned).
func (ix *FingerprintIndex) numIDs() int {
	return len(ix.base.fps) + len(ix.extra.fps)
}

func (ix *FingerprintIndex) entryAt(id int32) *fpEntry {
	if n := int32(len(ix.base.fps)); id < n {
		return &ix.base.fps[id]
	}
	return &ix.extra.fps[int(id)-len(ix.base.fps)]
}

func (ix *FingerprintIndex) live(id int32) bool {
	return int(id) >= len(ix.base.fps) || ix.dead == nil || !ix.dead[id]
}

// queryChar is one characteristic of a prepared query: the digest the index
// is probed with, and the scorer — built once per query — that every
// candidate's digest is scored against.
type queryChar struct {
	preparedChar
	sc ssdeep.Scorer
}

// prepareQuery parses the six query digests once into qp (about 25 KB; the
// caller keeps it on its stack) and reports whether any is usable. ok is
// false for empty or malformed digests (they score 0 against everything —
// missing information must not abort the search; SIREN hashes the lists
// precisely so that partial data stays comparable).
func prepareQuery(q Digests, qp *[numChars]queryChar) (any bool) {
	for c, d := range q.array() {
		if qp[c].preparedChar = prepareChar(d); qp[c].ok {
			qp[c].sc.Reset(qp[c].p)
			any = true
		}
	}
	return any
}

// scoreEntry computes one entry's Table 7 row against a prepared query; ok
// is false when every characteristic scored zero (the row is dropped).
func scoreEntry(e *fpEntry, qp *[numChars]queryChar, backend ssdeep.Backend) (SimilarityRow, bool) {
	var s [numChars]int
	total := 0
	for c := range s {
		if qp[c].ok && e.chars[c].ok {
			s[c] = qp[c].sc.Score(e.chars[c].p, backend)
			total += s[c]
		}
	}
	if total == 0 {
		return SimilarityRow{}, false
	}
	return SimilarityRow{
		Label:      e.fp.Label,
		Exe:        e.fp.Exe,
		Avg:        float64(total) / numChars,
		ModulesS:   s[0],
		CompilersS: s[1],
		ObjectsS:   s[2],
		FileS:      s[3],
		StringsS:   s[4],
		SymbolsS:   s[5],
		file:       e.fp.File,
	}, true
}

// cmpRows is the canonical ranking order: Avg descending, then Label, Exe,
// the six scores (descending, column order), and finally the entry's unique
// FILE_H — a total order, so rankings are independent of construction and
// candidate-collection order.
func cmpRows(a, b SimilarityRow) int {
	switch {
	case a.Avg > b.Avg:
		return -1
	case a.Avg < b.Avg:
		return 1
	case a.Label != b.Label:
		if a.Label < b.Label {
			return -1
		}
		return 1
	case a.Exe != b.Exe:
		if a.Exe < b.Exe {
			return -1
		}
		return 1
	}
	as := [numChars]int{a.ModulesS, a.CompilersS, a.ObjectsS, a.FileS, a.StringsS, a.SymbolsS}
	bs := [numChars]int{b.ModulesS, b.CompilersS, b.ObjectsS, b.FileS, b.StringsS, b.SymbolsS}
	for c := range as {
		if as[c] != bs[c] {
			if as[c] > bs[c] {
				return -1
			}
			return 1
		}
	}
	switch {
	case a.file < b.file:
		return -1
	case a.file > b.file:
		return 1
	}
	return 0
}

func finishRows(rows []SimilarityRow, topN int) []SimilarityRow {
	if len(rows) == 0 {
		return nil // canonical no-match result, whatever capacity was reserved
	}
	slices.SortFunc(rows, cmpRows)
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// Search ranks fingerprints by average fuzzy-hash similarity to the query
// across the six characteristics — the Table 7 computation. Rows with
// Avg == 0 are dropped; rows sort by Avg desc, then Label, then Exe (full
// tiebreak in cmpRows). topN <= 0 returns all matching rows.
//
// Only indexed candidates are scored: per characteristic, the entries
// sharing a block-size bucket and at least one signature 7-gram with the
// query (plus exact signature matches), unioned across the six
// characteristics. Every non-candidate scores zero on all six digests, so
// the result is byte-identical to the exhaustive scan.
func (ix *FingerprintIndex) Search(q Digests, topN int, backend ssdeep.Backend) []SimilarityRow {
	var qp [numChars]queryChar
	if !prepareQuery(q, &qp) {
		return nil
	}
	set := candPool.Get().(*ssdeep.CandidateSet)
	set.Reset(ix.numIDs())
	for c := range qp {
		if !qp[c].ok {
			continue
		}
		ix.base.idx[c].Candidates(qp[c].p, set)
		ix.extra.idx[c].Candidates(qp[c].p, set)
	}
	slices.Sort(set.IDs) // deterministic scoring order (and cache-friendly)
	rows := make([]SimilarityRow, 0, len(set.IDs))
	for _, id := range set.IDs {
		if !ix.live(id) {
			continue
		}
		if row, ok := scoreEntry(ix.entryAt(id), &qp, backend); ok {
			rows = append(rows, row)
		}
	}
	candPool.Put(set)
	return finishRows(rows, topN)
}

// SimilaritySearch computes Table 7: it ranks every *known* (labelled) user
// executable by average fuzzy-hash similarity to the baseline record across
// the six characteristics (modules, compilers, objects, file, strings,
// symbols). Executables are deduplicated by FILE_H so each distinct binary
// appears once. topN <= 0 returns all rows with Avg > 0.
//
// This is the one-shot offline form of the shared implementation: it builds
// a FingerprintIndex over the dataset and queries it with the baseline's
// digests — byte-identical ranking to the online identify endpoint serving
// a catalog generation of the same records.
func (d *Dataset) SimilaritySearch(baseline *postprocess.ProcessRecord, topN int, backend ssdeep.Backend) []SimilarityRow {
	return NewFingerprintIndex(d.Records).Search(RecordDigests(baseline), topN, backend)
}

// FindUnknown returns the first user-category record whose derived label is
// UNKNOWN and that carries a FILE_H — the Table 7 baseline.
func (d *Dataset) FindUnknown() (*postprocess.ProcessRecord, bool) {
	for _, r := range d.Records {
		if r.Category == "user" && r.FileH != "" && DeriveLabel(r.Exe) == UnknownLabel {
			return r, true
		}
	}
	return nil, false
}

// IdentifyByHash ranks known executables against an arbitrary single digest
// (FILE_H only) — the simpler identification mode used by the quickstart
// example and the exact-vs-fuzzy ablation.
func (d *Dataset) IdentifyByHash(fileH string, topN int, backend ssdeep.Backend) []SimilarityRow {
	q := prepareChar(fileH)
	if !q.ok {
		return nil // an empty or malformed query scores 0 against everything
	}
	var sc ssdeep.Scorer
	sc.Reset(q.p)
	seen := make(map[string]bool)
	var rows []SimilarityRow
	for _, r := range d.Records {
		if r.Category != "user" || r.FileH == "" || seen[r.FileH] {
			continue
		}
		seen[r.FileH] = true
		p := prepareChar(r.FileH)
		if !p.ok {
			continue
		}
		s := sc.Score(p.p, backend)
		if s == 0 {
			continue
		}
		rows = append(rows, SimilarityRow{Label: DeriveLabel(r.Exe), Exe: r.Exe, FileS: s, Avg: float64(s), file: r.FileH})
	}
	slices.SortFunc(rows, func(a, b SimilarityRow) int {
		switch {
		case a.Avg > b.Avg:
			return -1
		case a.Avg < b.Avg:
			return 1
		case a.Exe != b.Exe:
			if a.Exe < b.Exe {
				return -1
			}
			return 1
		case a.file < b.file:
			return -1
		case a.file > b.file:
			return 1
		}
		return 0
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}
