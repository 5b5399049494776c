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
	"io"
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

// rollingState is the 7-byte rolling hash that triggers chunk boundaries.
// Its value depends only on the last rollingWindow bytes seen, so identical
// windows always produce identical trigger decisions — the property that
// re-synchronises digests after an insertion or deletion.
type rollingState struct {
	window [rollingWindow]byte
	h1     uint32 // sum of window bytes
	h2     uint32 // weighted sum (position-sensitive)
	h3     uint32 // shift/xor mix
	n      uint32 // total bytes consumed
}

func (rs *rollingState) roll(c byte) uint32 {
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

func (rs *rollingState) sum() uint32 { return rs.h1 + rs.h2 + rs.h3 }

// sumHash is the FNV-style piecewise hash accumulated within a chunk.
func sumHash(c byte, h uint32) uint32 { return (h * hashPrime) ^ uint32(c) }

// Hash computes the fuzzy hash of data and returns it in canonical string
// form. Hashing is deterministic and never fails for inputs within
// MaxInputSize.
func Hash(data []byte) (string, error) {
	d, err := HashDigest(data)
	if err != nil {
		return "", err
	}
	return d.String(), nil
}

// HashString is Hash for string inputs.
func HashString(s string) (string, error) { return Hash([]byte(s)) }

// HashReader reads r to EOF and hashes the contents. CTPH needs the full
// input up front because the initial block-size guess may be halved after a
// first pass produces a too-short signature.
func HashReader(r io.Reader) (string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", fmt.Errorf("ssdeep: reading input: %w", err)
	}
	return Hash(data)
}

// HashDigest computes the fuzzy hash of data in parsed form.
func HashDigest(data []byte) (Digest, error) {
	if int64(len(data)) > MaxInputSize {
		return Digest{}, fmt.Errorf("ssdeep: input of %d bytes exceeds maximum", len(data))
	}
	// Initial block-size guess: the smallest power-of-two multiple of
	// blockMin such that the expected signature fits in spamsumLength.
	bs := uint32(blockMin)
	for uint64(bs)*spamsumLength < uint64(len(data)) {
		bs *= 2
	}
	for {
		sig1, sig2 := digestOnce(data, bs)
		// If the first signature came out shorter than half the cap the
		// block size was too coarse; halve and retry (reference behaviour).
		if bs > blockMin && len(sig1) < spamsumLength/2 {
			bs /= 2
			continue
		}
		return Digest{BlockSize: bs, Sig1: sig1, Sig2: sig2}, nil
	}
}

// digestOnce runs a single CTPH pass with trigger block size bs, returning
// the two signatures.
func digestOnce(data []byte, bs uint32) (string, string) {
	var sig1 [spamsumLength]byte
	var sig2 [spamsumLength / 2]byte
	j, k := 0, 0
	h1, h2 := uint32(hashInit), uint32(hashInit)
	var roll rollingState
	var rh uint32
	bs2 := bs * 2
	for _, c := range data {
		h1 = sumHash(c, h1)
		h2 = sumHash(c, h2)
		rh = roll.roll(c)
		if rh%bs == bs-1 {
			sig1[j] = base64Chars[h1%64]
			if j < spamsumLength-1 {
				// Keep the final slot writable so the very last chunk can
				// overwrite it; matches reference behaviour for inputs that
				// trigger more than spamsumLength boundaries.
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
	if roll.sum() != 0 {
		sig1[j] = base64Chars[h1%64]
		j++
		sig2[k] = base64Chars[h2%64]
		k++
	}
	return string(sig1[:j]), string(sig2[:k])
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
