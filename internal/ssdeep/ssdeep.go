// Package ssdeep implements context-triggered piecewise hashing (CTPH) —
// the fuzzy-hash algorithm introduced by Kornblum (2006) and popularised by
// the ssdeep tool / libfuzzy, which the SIREN framework uses to identify and
// recognise HPC application executables.
//
// A fuzzy hash ("digest") has the form
//
//	blocksize:signature1:signature2
//
// where signature1 is produced with trigger block size b and signature2 with
// 2b. A rolling hash over a 7-byte window decides chunk boundaries; each
// chunk is summarised by one base64 character derived from an FNV-style
// piecewise hash. Because boundaries depend on content, inserting or
// deleting bytes only perturbs the digest locally, so similar files yield
// similar digests. Compare maps digest similarity to a score in [0, 100]
// (0 = no similarity, 100 = effectively identical).
//
// The implementation follows the reference libfuzzy semantics: block-size
// doubling/halving, 64/32-character signature caps, run-length clamping of
// repeated characters before comparison, a 7-byte common-substring gate, and
// the reference weighted edit distance for scoring. The SIREN paper describes
// the comparison in terms of the Damerau–Levenshtein distance; both backends
// (plus plain Levenshtein) are available via CompareWith for the ablation
// study.
package ssdeep

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"siren/internal/editdist"
)

const (
	// rollingWindow is the width of the rolling-hash window in bytes and
	// also the minimum common-substring length required for a nonzero
	// comparison score.
	rollingWindow = 7
	// blockMin is the smallest trigger block size.
	blockMin = 3
	// spamsumLength is the maximum length of the first signature; the
	// second signature is capped at half of it.
	spamsumLength = 64

	hashPrime = 0x01000193
	hashInit  = 0x28021967

	base64Chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)

// MaxInputSize bounds Hash inputs, mirroring libfuzzy's SSDEEP_MAX_FILE_SIZE
// guard (the block-size ladder tops out and digests stop being meaningful).
const MaxInputSize = 192 << 30 // effectively unbounded for our workloads

// ErrMalformedDigest is returned by ParseDigest and Compare when a digest
// string does not have the blocksize:sig1:sig2 shape.
var ErrMalformedDigest = errors.New("ssdeep: malformed digest")

// Digest is a parsed fuzzy hash.
type Digest struct {
	BlockSize uint32
	Sig1      string // produced with trigger block size BlockSize, ≤ 64 chars
	Sig2      string // produced with trigger block size 2*BlockSize, ≤ 32 chars
}

// String renders the digest in the canonical blocksize:sig1:sig2 form.
func (d Digest) String() string {
	return strconv.FormatUint(uint64(d.BlockSize), 10) + ":" + d.Sig1 + ":" + d.Sig2
}

// ParseDigest splits a digest string into its parts. A trailing
// ",filename" component (as emitted by the ssdeep CLI) is tolerated and
// ignored.
func ParseDigest(s string) (Digest, error) {
	if i := strings.IndexByte(s, ','); i >= 0 {
		s = s[:i]
	}
	first := strings.IndexByte(s, ':')
	if first < 0 {
		return Digest{}, fmt.Errorf("%w: %q lacks ':'", ErrMalformedDigest, s)
	}
	rest := s[first+1:]
	second := strings.IndexByte(rest, ':')
	if second < 0 {
		return Digest{}, fmt.Errorf("%w: %q lacks second ':'", ErrMalformedDigest, s)
	}
	bs, err := strconv.ParseUint(s[:first], 10, 32)
	if err != nil || bs == 0 {
		return Digest{}, fmt.Errorf("%w: bad block size in %q", ErrMalformedDigest, s)
	}
	return Digest{
		BlockSize: uint32(bs),
		Sig1:      rest[:second],
		Sig2:      rest[second+1:],
	}, nil
}

// Backend selects the edit-distance used to score signature similarity.
type Backend int

const (
	// BackendWeighted is the reference libfuzzy distance: insertions and
	// deletions cost 1, substitutions cost 2. This is the default.
	BackendWeighted Backend = iota
	// BackendDamerau is the Damerau–Levenshtein (OSA) distance named by the
	// SIREN paper: unit-cost insert/delete/substitute/adjacent-transpose.
	BackendDamerau
	// BackendLevenshtein is the plain unit-cost Levenshtein distance.
	BackendLevenshtein
)

// String names the backend for reports.
func (b Backend) String() string {
	switch b {
	case BackendWeighted:
		return "weighted"
	case BackendDamerau:
		return "damerau-levenshtein"
	case BackendLevenshtein:
		return "levenshtein"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps a backend name to its Backend — the shared grammar of
// the siren-hash -backend flag and the serve-tier identify API. The empty
// string selects the default (weighted) backend.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "weighted":
		return BackendWeighted, nil
	case "damerau", "damerau-levenshtein":
		return BackendDamerau, nil
	case "levenshtein":
		return BackendLevenshtein, nil
	}
	return BackendWeighted, fmt.Errorf("unknown backend %q (want weighted|damerau|levenshtein)", name)
}

// distance is the backend's edit distance between the pattern string and s.
// All three distances are symmetric, so which signature of a pair sits in the
// table does not matter.
func (b Backend) distance(p *editdist.Pattern, s string) int {
	switch b {
	case BackendDamerau:
		return p.DamerauLevenshtein(s)
	case BackendLevenshtein:
		return p.Levenshtein(s)
	default:
		return p.Weighted(s)
	}
}

// Compare scores the similarity of two digests on a 0–100 scale using the
// reference weighted edit distance. 100 means effectively identical, 0 means
// no measurable similarity. An error is returned only for malformed digests.
func Compare(d1, d2 string) (int, error) {
	return CompareWith(d1, d2, BackendWeighted)
}

// CompareWith is Compare with an explicit scoring backend.
func CompareWith(d1, d2 string, backend Backend) (int, error) {
	p1, err := ParseDigest(d1)
	if err != nil {
		return 0, err
	}
	p2, err := ParseDigest(d2)
	if err != nil {
		return 0, err
	}
	return CompareDigests(p1, p2, backend), nil
}

// CompareDigests scores two parsed digests. Block sizes must be equal or one
// must be double the other; otherwise the inputs were hashed at incomparable
// granularities and the score is 0.
//
// The comparison first clamps runs of repeated characters in each signature
// (eliminateSequences): long runs carry almost no information (a run arises
// from a pathological input pattern) and would otherwise dominate the edit
// distance. ComparePrepared is the same computation over digests with the
// clamp already applied.
func CompareDigests(p1, p2 Digest, backend Backend) int {
	return ComparePrepared(PrepareDigest(p1), PrepareDigest(p2), backend)
}

// The bit-vector kernels hold one signature per machine word.
const _ = uint(editdist.WordSize - spamsumLength)

// Scorer scores digests against one fixed digest, the query. Everything the
// comparison derives from one side alone — the match-mask tables of its two
// clamped signatures that the gate and the distance kernels read — is built
// once by Reset, so a search pays for it per query, not per candidate. The
// zero value scores against nothing; a Scorer is about 4 KB and must not be
// used concurrently with its Reset.
type Scorer struct {
	q      PreparedDigest
	s1, s2 editdist.Pattern // of q.S1 and q.S2
}

// Reset makes q the digest that Score compares against. A signature longer
// than the spamsum cap (only a hand-written digest has one) leaves its
// pattern empty; the empty pattern fails the common-substring gate, so such
// a signature scores 0 against everything, as scoreStrings requires.
func (sc *Scorer) Reset(q PreparedDigest) {
	sc.q = q
	sc.s1.Set(q.S1)
	sc.s2.Set(q.S2)
}

// Score is ComparePrepared(q, p, backend) for the query q given to Reset.
func (sc *Scorer) Score(p PreparedDigest, backend Backend) int {
	bs1, bs2 := sc.q.BlockSize, p.BlockSize
	if bs1 != bs2 && bs1 != bs2*2 && bs2 != bs1*2 {
		return 0
	}
	if bs1 == bs2 && sc.q.S1 == p.S1 && sc.q.S2 == p.S2 {
		return 100
	}
	switch {
	case bs1 == bs2:
		return max(scoreStrings(&sc.s1, p.S1, bs1, backend), scoreStrings(&sc.s2, p.S2, bs1*2, backend))
	case bs1 == bs2*2:
		return scoreStrings(&sc.s1, p.S2, bs1, backend)
	default: // bs2 == bs1*2
		return scoreStrings(&sc.s2, p.S1, bs2, backend)
	}
}

// scoreStrings maps the edit distance between two same-block-size signatures
// — the pattern's and s2 — onto 0–100, with the reference small-block-size
// cap that prevents short digests of tiny files from overstating similarity.
// Both signatures are at most spamsumLength bytes when the distance runs, so
// scoring never leaves the bit-vector kernels.
func scoreStrings(p1 *editdist.Pattern, s2 string, bs uint32, backend Backend) int {
	if len(s2) > spamsumLength {
		return 0
	}
	if !p1.HasCommonSubstring(s2, rollingWindow) {
		return 0
	}
	score := backend.distance(p1, s2)
	// Rescale: distance relative to combined length, onto 0..64, then 0..100.
	score = score * spamsumLength / (p1.Len() + len(s2))
	score = 100 * score / 64
	if score >= 100 {
		return 0
	}
	score = 100 - score
	// For small block sizes, cap the score so that matches between short
	// signatures cannot claim near-certainty.
	if bs >= (99+rollingWindow)/rollingWindow*blockMin {
		return score
	}
	capScore := int(bs) / blockMin * min(p1.Len(), len(s2))
	if score > capScore {
		return capScore
	}
	return score
}

// eliminateSequences truncates runs of more than three identical characters
// to exactly three, per the reference comparison pre-pass. The input is
// returned unchanged (no copy) when it contains no such run — the common
// case for real digests.
func eliminateSequences(s string) string {
	i := 3
	for ; i < len(s); i++ {
		if s[i] == s[i-1] && s[i] == s[i-2] && s[i] == s[i-3] {
			break
		}
	}
	if i >= len(s) {
		return s
	}
	out := make([]byte, i, len(s))
	copy(out, s)
	for ; i < len(s); i++ {
		if s[i] == s[i-1] && s[i] == s[i-2] && s[i] == s[i-3] {
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}
