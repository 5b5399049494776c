// Package editdist implements string edit distances used by the SIREN
// fuzzy-hash comparison layer.
//
// Three families are provided:
//
//   - Levenshtein: insertions, deletions, substitutions, unit cost.
//   - Damerau–Levenshtein (optimal string alignment, OSA): Levenshtein plus
//     transposition of two adjacent characters, unit cost. This is the
//     distance the SIREN paper names for SSDeep digest comparison.
//   - Weighted: insert/delete cost 1, substitution cost 2 — the distance used
//     by the reference ssdeep implementation (a substitution is modelled as a
//     delete followed by an insert).
//
// All functions operate on byte strings because SSDeep digests are ASCII
// (base64 alphabet); multi-byte runes never occur in digests.
//
// The distances run once per characteristic per scored candidate on the
// identify path, and spamsum signatures are at most 64 bytes, so one
// signature's match positions fit one machine word. Pattern holds a string of
// up to WordSize bytes as a table of match masks, and its methods are
// bit-vector kernels over that table: every column of the classic DP table is
// one or two words, a text byte advances it in a handful of word operations,
// and nothing touches the heap (DESIGN.md §9, "Scoring kernels"). The table
// depends on one string only, so a caller scoring one string against many
// builds it once.
//
// The package-level functions take any lengths: they run the kernel when the
// shorter string fits a word and the classic O(m·n) DP otherwise. The DP
// loops are also the oracles the kernels are tested against.
package editdist

import "math/bits"

// WordSize is the longest string, in bytes, a Pattern can hold.
const WordSize = 64

// Pattern is a string of at most WordSize bytes in the form the bit-vector
// kernels read: bit j of eq[c] is set iff byte j of the string is c. The
// zero value is the empty pattern. A Pattern is 2 KB; keep it on the stack
// or inside a longer-lived value and pass it by pointer.
type Pattern struct {
	eq [256]uint64
	s  string
}

// Set makes p the pattern of s and reports whether s fits. A string longer
// than WordSize leaves p empty.
func (p *Pattern) Set(s string) bool {
	for i := 0; i < len(p.s); i++ {
		p.eq[p.s[i]] = 0
	}
	p.s = ""
	if len(s) > WordSize {
		return false
	}
	for i := 0; i < len(s); i++ {
		p.eq[s[i]] |= 1 << uint(i)
	}
	p.s = s
	return true
}

// Len reports the length of the pattern string.
func (p *Pattern) Len() int { return len(p.s) }

// Weighted is the package-level Weighted with the pattern string as one
// argument and t as the other.
//
// It is the bit-parallel longest-common-subsequence recurrence of Crochemore,
// Iliopoulos, Pinzon and Reid (2001) in Hyyrö's (2004) two-operation form: a
// zero bit i of v after column j says LCS(pattern[:i+1], t[:j]) exceeds
// LCS(pattern[:i], t[:j]), so the zeros count the LCS. Bits above the pattern
// never match, stay one, and are not counted.
func (p *Pattern) Weighted(t string) int {
	v := ^uint64(0)
	for i := 0; i < len(t); i++ {
		u := v & p.eq[t[i]]
		v = (v + u) | (v - u)
	}
	return len(p.s) + len(t) - 2*(WordSize-bits.OnesCount64(v))
}

// Levenshtein is the package-level Levenshtein with the pattern string as one
// argument and t as the other.
func (p *Pattern) Levenshtein(t string) int { return p.unitCost(t, 0) }

// DamerauLevenshtein is the package-level DamerauLevenshtein with the pattern
// string as one argument and t as the other.
func (p *Pattern) DamerauLevenshtein(t string) int { return p.unitCost(t, ^uint64(0)) }

// unitCost is Myers' (1999) bit-vector edit distance in Hyyrö's (2003)
// formulation, for the global distance (the top row of the DP table counts
// up, hence the 1 shifted into hp). Column j of the table is held as vertical
// deltas: vp/vn have bit i set where D[i+1][j]−D[i][j] is +1/−1; d0 has bit i
// set where the diagonal step into D[i+1][j] costs nothing; hp/hn are the
// horizontal deltas. The distance is the last column summed from its top
// cell D[0][len(t)] = len(t) down the pattern's bits.
//
// transpose is the Damerau term's mask, all ones or zero. The term is
// Hyyrö's: the step into D[i+1][j] is also free when pattern[i-1] == t[j],
// pattern[i] == t[j-1], and the previous column's diagonal step into
// D[i][j-1] was not — the optimal-string-alignment transposition.
func (p *Pattern) unitCost(t string, transpose uint64) int {
	vp, vn := ^uint64(0), uint64(0)
	var d0, pmPrev uint64
	for i := 0; i < len(t); i++ {
		pm := p.eq[t[i]]
		tr := (^d0 & pm) << 1 & pmPrev & transpose
		d0 = (((pm & vp) + vp) ^ vp) | pm | vn | tr
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
		pmPrev = pm
	}
	inPattern := ^uint64(0) >> uint(WordSize-len(p.s)) // no bits for the empty pattern
	return len(t) + bits.OnesCount64(vp&inPattern) - bits.OnesCount64(vn&inPattern)
}

// HasCommonSubstring reports whether the pattern string and t share a
// contiguous substring of at least n bytes.
//
// A common n-gram ending at pattern[i] and t[j] needs pattern[i-d] == t[j-d]
// for every d below n: bit i of eq[t[j-d]]<<d, ANDed over d. The AND is
// abandoned as soon as it is zero, which for all but aligned stretches of
// related strings is after a byte or two.
func (p *Pattern) HasCommonSubstring(t string, n int) bool {
	if n <= 0 {
		return true
	}
	if len(p.s) < n {
		return false
	}
	for j := n - 1; j < len(t); j++ {
		run := p.eq[t[j]]
		for d := 1; d < n && run != 0; d++ {
			run &= p.eq[t[j-d]] << uint(d)
		}
		if run != 0 {
			return true
		}
	}
	return false
}

// setShorter makes p the pattern of the shorter of a and b and returns the
// other as the text; ok is false, and p empty, when even the shorter one
// does not fit a word. This is the one place length selects between the
// kernels and the DP loops.
func (p *Pattern) setShorter(a, b string) (text string, ok bool) {
	if len(a) > len(b) {
		a, b = b, a
	}
	return b, p.Set(a)
}

// Levenshtein returns the classic edit distance between a and b: the minimum
// number of single-byte insertions, deletions, or substitutions required to
// transform a into b.
func Levenshtein(a, b string) int {
	var p Pattern
	if t, ok := p.setShorter(a, b); ok {
		return p.Levenshtein(t)
	}
	return levenshteinDP(a, b)
}

// DamerauLevenshtein returns the optimal-string-alignment variant of the
// Damerau–Levenshtein distance between a and b: the minimum number of
// insertions, deletions, substitutions, or transpositions of two adjacent
// bytes, where no substring is edited more than once.
func DamerauLevenshtein(a, b string) int {
	var p Pattern
	if t, ok := p.setShorter(a, b); ok {
		return p.DamerauLevenshtein(t)
	}
	return damerauLevenshteinDP(a, b)
}

// Weighted returns the edit distance with insert and delete cost 1 and
// substitution cost 2, matching the reference ssdeep edit_distn weights.
// With these weights a substitution never beats the equivalent
// delete-then-insert, so the distance equals len(a)+len(b)-2*LCS(a,b).
func Weighted(a, b string) int {
	var p Pattern
	if t, ok := p.setShorter(a, b); ok {
		return p.Weighted(t)
	}
	return weightedDP(a, b)
}

// HasCommonSubstring reports whether a and b share a contiguous substring of
// at least n bytes. It is the gate the ssdeep comparison applies (n = 7,
// the rolling-hash window) before computing an edit distance, to suppress
// coincidental low-distance matches between short digests.
func HasCommonSubstring(a, b string, n int) bool {
	var p Pattern
	if t, ok := p.setShorter(a, b); ok {
		return p.HasCommonSubstring(t, n)
	}
	return n <= 0 || LongestCommonSubstring(a, b) >= n
}

// levenshteinDP is Levenshtein by the classic two-row DP: the any-length
// fallback, and the oracle for the kernel.
func levenshteinDP(a, b string) int {
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// damerauLevenshteinDP is DamerauLevenshtein by the classic DP over three
// rolling rows (i-2, i-1, i).
func damerauLevenshteinDP(a, b string) int {
	row2, row1, row0 := make([]int, len(b)+1), make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range row1 {
		row1[j] = j
	}
	for i := 1; i <= len(a); i++ {
		row0[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			d := min(row1[j]+1, row0[j-1]+1, row1[j-1]+cost)
			if i > 1 && j > 1 && ca == b[j-2] && a[i-2] == b[j-1] {
				d = min(d, row2[j-2]+1)
			}
			row0[j] = d
		}
		row2, row1, row0 = row1, row0, row2
	}
	return row1[len(b)]
}

// weightedDP is Weighted by the classic two-row DP.
func weightedDP(a, b string) int {
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 2
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// LongestCommonSubstring returns the length of the longest contiguous
// substring common to a and b.
func LongestCommonSubstring(a, b string) int {
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			if ca == b[j-1] {
				cur[j] = prev[j-1] + 1
				best = max(best, cur[j])
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}
