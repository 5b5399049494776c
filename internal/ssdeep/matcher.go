package ssdeep

import (
	"slices"
	"sync"
)

// Entry is a labelled digest registered with a Matcher.
type Entry struct {
	Label  string // free-form label, e.g. a software name
	Digest string // canonical digest string
	parsed PreparedDigest
}

// Match is one similarity-search result.
type Match struct {
	Label  string
	Digest string
	Score  int // 1–100
}

// Matcher is an in-memory similarity-search index over labelled fuzzy
// hashes: the structure SIREN's analysis layer uses to identify an unknown
// executable by ranking its digest against all known ones. A Matcher is safe
// for concurrent use.
//
// Matcher rides the shared Index engine: entries are bucketed by block size
// (only b/2, b, and 2b can score nonzero against a query with block size b)
// and gram-inverted within each bucket, so a query scores only the entries
// that could possibly match instead of the whole population.
type Matcher struct {
	mu      sync.RWMutex
	entries []Entry
	index   *Index // over all of entries; nil when an Add has outdated it
	backend Backend
}

// candidatePool recycles CandidateSet scratch across queries, package-wide:
// mark tables grow to the largest population queried and are then reused
// allocation-free.
var candidatePool = sync.Pool{New: func() any { return new(CandidateSet) }}

// NewMatcher returns an empty Matcher scoring with the given backend.
func NewMatcher(backend Backend) *Matcher {
	return &Matcher{backend: backend}
}

// Len reports the number of registered entries.
func (m *Matcher) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// Add registers a labelled digest. Malformed digests are rejected. The index
// is bulk-built, so Add only drops it; the next query rebuilds it over every
// entry registered by then.
func (m *Matcher) Add(label, digest string) error {
	p, err := ParsePrepared(digest)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, Entry{Label: label, Digest: digest, parsed: p})
	m.index = nil
	return nil
}

// snapshot returns the registered entries and an index over exactly those,
// building the index if an Add dropped it. Both are immutable: entries is
// append-only and the caller's slice header ends where the index does.
func (m *Matcher) snapshot() ([]Entry, *Index) {
	m.mu.RLock()
	entries, ix := m.entries, m.index
	m.mu.RUnlock()
	if ix != nil {
		return entries, ix
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.index == nil {
		ies := make([]IndexEntry, len(m.entries))
		for i := range m.entries {
			ies[i] = IndexEntry{ID: int32(i), Digest: m.entries[i].parsed}
		}
		m.index = NewIndex(ies)
	}
	return m.entries, m.index
}

// Matches returns every entry scoring at least minScore against the query
// digest, sorted by descending score (ties broken by label, then digest, for
// determinism). A score of 0 means no measurable similarity, so zero-scoring
// entries are never returned: minScore below 1 is treated as 1.
func (m *Matcher) Matches(digest string, minScore int) ([]Match, error) {
	q, err := ParsePrepared(digest)
	if err != nil {
		return nil, err
	}
	minScore = max(minScore, 1)
	set := candidatePool.Get().(*CandidateSet)
	defer candidatePool.Put(set)

	entries, ix := m.snapshot()
	set.Reset(len(entries))
	ix.Candidates(q, set)
	slices.Sort(set.IDs)
	var sc Scorer
	sc.Reset(q)
	var out []Match
	for _, id := range set.IDs {
		e := &entries[id]
		if score := sc.Score(e.parsed, m.backend); score >= minScore {
			out = append(out, Match{Label: e.Label, Digest: e.Digest, Score: score})
		}
	}

	slices.SortFunc(out, func(a, b Match) int {
		switch {
		case a.Score != b.Score:
			if a.Score > b.Score {
				return -1
			}
			return 1
		case a.Label != b.Label:
			if a.Label < b.Label {
				return -1
			}
			return 1
		case a.Digest < b.Digest:
			return -1
		case a.Digest > b.Digest:
			return 1
		}
		return 0
	})
	return out, nil
}

// Best returns the highest-scoring match, or ok=false when nothing scores
// above zero.
func (m *Matcher) Best(digest string) (Match, bool, error) {
	ms, err := m.Matches(digest, 1)
	if err != nil || len(ms) == 0 {
		return Match{}, false, err
	}
	return ms[0], true, nil
}
