package ssdeep

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"unsafe"
)

// numLevels is the number of trigger block sizes, blockMin·2^0 through
// blockMin·2^31. An input within MaxInputSize starts its block-size search
// at level 30 or below; level 31 only ever supplies a second signature (and
// never triggers: a 32-bit rolling sum cannot reach blockMin·2^31 − 1).
const numLevels = 32

// Lane masks for the piecewise hashes, one per byte of a uint64 (see step).
const (
	lane1 = 0x0101010101010101
	low2  = 0x03 * lane1
	low5  = 0x1f * lane1
	low6  = 0x3f * lane1
)

// pieceInit is hashInit as the signature sees it: a signature character is
// the piecewise hash modulo 64, and (h·hashPrime ⊕ c) mod 64 depends only on
// h mod 64 and c mod 64, so six bits of state per level are enough.
const pieceInit = hashInit & 63

// step advances eight six-bit piecewise hashes, one per byte lane of v, by
// one input byte whose low six bits are repeated in every lane of cb. The
// multiplication by hashPrime mod 64 = 19 is 16x + 2x + x with each term
// reduced mod 64 first, so no lane carries into the next.
func step(v, cb uint64) uint64 {
	return (((v&low2)<<4 + (v&low5)<<1 + v) & low6) ^ cb
}

// stepPiece is step for one piecewise hash.
func stepPiece(h, c byte) byte { return (h*(hashPrime&63) ^ c) & 63 }

// rollingState is the 7-byte rolling hash that triggers chunk boundaries.
// Its value depends only on the last rollingWindow bytes seen, so identical
// windows always produce identical trigger decisions — the property that
// re-synchronises digests after an insertion or deletion.
type rollingState struct {
	win uint64 // the last rollingWindow bytes, the newest in the low byte
	h1  uint32 // sum of window bytes
	h2  uint32 // weighted sum (position-sensitive)
	h3  uint32 // shift/xor mix
}

func (rs *rollingState) roll(c byte) uint32 {
	x := uint32(c)
	rs.h2 += rollingWindow*x - rs.h1
	rs.h1 += x - uint32(byte(rs.win>>((rollingWindow-1)*8)))
	rs.win = rs.win<<8 | uint64(c)
	rs.h3 = rs.h3<<5 ^ x
	return rs.h1 + rs.h2 + rs.h3
}

func (rs *rollingState) sum() uint32 { return rs.h1 + rs.h2 + rs.h3 }

// Hasher computes a fuzzy hash of input written to it in any number of
// pieces, reading each byte once. The digest is the one the block-size
// search would produce over the whole input: start at the smallest block
// size b = blockMin·2^L whose 64-character signature covers the input, and
// halve while the first signature comes out shorter than 32 characters.
// Instead of re-reading the input per halving, a Hasher keeps the signature
// state of every level that can still be chosen, as libfuzzy's fuzzy_update
// has done since ssdeep 2.13:
//
//   - the rolling hash is computed once; level L triggers where
//     rh mod 3·2^L = 3·2^L − 1, which by the Chinese remainder theorem is
//     rh mod 2^L = 2^L − 1 and rh mod 3 = 2 — a mask test, then one constant
//     division, and the levels that trigger are exactly 0 … trailing ones(rh);
//   - the highest level kept has not triggered yet, so every level above it
//     holds the same state and is created from it (forked) at its first
//     trigger;
//   - a level below one that has 32 triggers and lies within the search is
//     never chosen, so it is dropped;
//   - a second signature's hash stops resetting at its cap, 31 triggers
//     before the first's, so a level that may still supply one keeps that
//     hash apart from its 32nd trigger on (it splits).
//
// The zero value is ready to use. A Hasher is not safe for concurrent use.
type Hasher struct {
	n     uint64 // bytes written
	size  uint64 // the input's total length, when sized
	sized bool   // size is known: no level above the search's start + 1 is kept
	ready bool   // reset has run

	roll   rollingState
	lo, hi int       // the levels kept, lo … hi
	top    int       // the highest level hi may grow to
	mask   uint32    // 2^lo − 1: rh&mask == mask is level lo's trigger test
	words  int       // lanes words in use: (hi − lo)/8 + 1
	lanes  [4]uint64 // level lo+i's piecewise hash in byte i%8 of lanes[i/8]
	split  uint32    // levels whose second-signature hash has left the first's
	half   [numLevels]byte
	count  [numLevels]byte // triggers per level, saturating at spamsumLength
	sigs   [numLevels][spamsumLength - 1]byte
}

// Reset discards all input written so far.
func (h *Hasher) Reset() { h.reset(0, false) }

// reset prepares h for input of the given total size when sized is set.
func (h *Hasher) reset(size uint64, sized bool) {
	h.n, h.size, h.sized, h.ready = 0, size, sized, true
	h.roll = rollingState{}
	h.lo, h.hi, h.mask, h.words = 0, 0, 0, 1
	h.top = numLevels - 1
	if sized {
		h.top = levelFor(size) + 1
	}
	h.lanes = [4]uint64{pieceInit}
	h.split = 0
	h.count = [numLevels]byte{}
}

// Write adds p to the input. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	h.write(p)
	return len(p), nil
}

// WriteString is Write for a string.
func (h *Hasher) WriteString(s string) (int, error) {
	h.write(bytesOf(s))
	return len(s), nil
}

// WriteByte adds one byte to the input. It never fails.
func (h *Hasher) WriteByte(c byte) error {
	b := [1]byte{c}
	h.write(b[:])
	return nil
}

// bytesOf views s as bytes, for the hasher's loops, which only read.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// write feeds p through the hasher one segment at a time: scan runs the
// rolling hash and level lo's word of piecewise hashes up to and including
// the next byte where level lo triggers, stepRest brings the other words and
// the split hashes over the same segment (they never decide a trigger), and
// trigger records the boundary.
func (h *Hasher) write(p []byte) {
	if !h.ready {
		h.Reset()
	}
	for len(p) > 0 {
		n, rh, hit := h.scan(p)
		if h.words > 1 || h.split != 0 {
			h.stepRest(p[:n])
		}
		h.n += uint64(n)
		if hit {
			h.trigger(rh)
		}
		p = p[n:]
	}
}

// scan is the per-byte loop. It calls nothing, and keeps the rolling hash
// (rollingState.roll, spelled out) and the first word of lanes in
// registers. It returns how many bytes it consumed and, when the last of
// them triggers level lo, that byte's rolling hash and true.
func (h *Hasher) scan(p []byte) (int, uint32, bool) {
	win, r1, r2, r3 := h.roll.win, h.roll.h1, h.roll.h2, h.roll.h3
	w0, mask := h.lanes[0], h.mask
	for i, c := range p {
		x := uint32(c)
		r2 += rollingWindow*x - r1
		r1 += x - uint32(byte(win>>((rollingWindow-1)*8)))
		win = win<<8 | uint64(c)
		r3 = r3<<5 ^ x
		rh := r1 + r2 + r3
		w0 = step(w0, uint64(c&63)*lane1)
		if rh&mask == mask && rh%3 == 2 {
			h.roll, h.lanes[0] = rollingState{win, r1, r2, r3}, w0
			return i + 1, rh, true
		}
	}
	h.roll, h.lanes[0] = rollingState{win, r1, r2, r3}, w0
	return len(p), 0, false
}

// stepRest advances the lanes past the first word and the split hashes
// over seg.
func (h *Hasher) stepRest(seg []byte) {
	for w := 1; w < h.words; w++ {
		v := h.lanes[w&3]
		for i := 0; i < len(seg); i++ {
			v = step(v, uint64(seg[i]&63)*lane1)
		}
		h.lanes[w&3] = v
	}
	for s := h.split; s != 0; s &= s - 1 {
		l := bits.TrailingZeros32(s)
		v := h.half[l]
		for i := 0; i < len(seg); i++ {
			v = stepPiece(v, seg[i])
		}
		h.half[l] = v
	}
}

// trigger records a chunk boundary at every kept level the rolling hash rh
// triggers (level lo's test has passed), then drops the levels that can no
// longer be chosen.
func (h *Hasher) trigger(rh uint32) {
	limit := h.n
	if h.sized {
		limit = h.size
	}
	start := levelFor(limit) // the block-size search starts here or higher
	last := bits.TrailingZeros32(^rh)
	for l := h.lo; l <= last && l <= h.hi; l++ {
		i := l - h.lo
		v := h.lane(i)
		if l == h.hi && h.hi < h.top {
			h.hi++
			h.setLane(i+1, v) // level hi+1 has not triggered either: same state
		}
		k := h.count[l]
		if k == spamsumLength/2-1 && l > start {
			// The 32nd trigger: the second signature's cap is reached and
			// its hash stops resetting. Only a level above the search's
			// start can end up as a second signature, so only it keeps one.
			h.half[l] = v
			h.split |= 1 << l
		}
		if k < spamsumLength-1 {
			h.sigs[l][k] = base64Chars[v]
			h.setLane(i, pieceInit)
		}
		if k < spamsumLength {
			h.count[l] = k + 1
		}
	}
	h.split &^= 1<<(start+1) - 1
	for h.lo < start && h.count[h.lo+1] >= spamsumLength/2 {
		h.lo++
		for w := range h.lanes {
			h.lanes[w] >>= 8
			if w+1 < len(h.lanes) {
				h.lanes[w] |= h.lanes[w+1] << 56
			}
		}
	}
	h.mask = 1<<h.lo - 1
	h.words = (h.hi-h.lo)>>3 + 1
}

func (h *Hasher) lane(i int) byte { return byte(h.lanes[i>>3&3] >> (i & 7 * 8)) }

func (h *Hasher) setLane(i int, v byte) {
	sh := i & 7 * 8
	w := &h.lanes[i>>3&3]
	*w = *w&^(0xff<<sh) | uint64(v)<<sh
}

// levelFor is the level the block-size search starts at for an input of n
// bytes: the smallest L with blockMin·2^L·spamsumLength ≥ n.
func levelFor(n uint64) int {
	const cover = blockMin * spamsumLength
	if n <= cover {
		return 0
	}
	return min(bits.Len64((n-1)/cover), numLevels-2)
}

// level returns level l's trigger count and current piecewise hash. A level
// above hi has not triggered and shares hi's state.
func (h *Hasher) level(l int) (int, byte) {
	if l > h.hi {
		return 0, h.lane(h.hi - h.lo)
	}
	return int(h.count[l]), h.lane(l - h.lo)
}

// appendSignature appends level l's signature capped at maxLen characters,
// with the final chunk's character when tail is set. At the cap the last
// character covers every chunk from the cap-th trigger on, so the second
// signature's (maxLen spamsumLength/2) comes from the split hash.
func (h *Hasher) appendSignature(dst []byte, l, maxLen int, tail bool) []byte {
	k, piece := h.level(l)
	dst = append(dst, h.sigs[l][:min(k, maxLen-1)]...)
	if tail {
		if maxLen < spamsumLength && k >= maxLen {
			piece = h.half[l]
		}
		dst = append(dst, base64Chars[piece])
	}
	return dst
}

// choose returns the level the block-size search settles on — the highest
// from its start down whose first signature has at least spamsumLength/2
// characters, or the lowest kept — and whether the signatures end with a
// final chunk's character.
func (h *Hasher) choose() (level int, tail bool, err error) {
	if h.n > MaxInputSize {
		return 0, false, fmt.Errorf("ssdeep: input of %d bytes exceeds maximum", h.n)
	}
	if !h.ready {
		h.Reset()
	}
	tail = h.roll.sum() != 0
	level = levelFor(h.n)
	for level > h.lo {
		if k, _ := h.level(level); min(k, spamsumLength-1)+b2i(tail) >= spamsumLength/2 {
			break
		}
		level--
	}
	return level, tail, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Digest returns the fuzzy hash of the input written so far. More input
// may follow.
func (h *Hasher) Digest() (Digest, error) {
	l, tail, err := h.choose()
	if err != nil {
		return Digest{}, err
	}
	var buf [spamsumLength]byte
	d := Digest{BlockSize: blockMin << l}
	d.Sig1 = string(h.appendSignature(buf[:0], l, spamsumLength, tail))
	d.Sig2 = string(h.appendSignature(buf[:0], l+1, spamsumLength/2, tail))
	return d, nil
}

// MaxDigestLen bounds the length of a digest in canonical form.
const MaxDigestLen = len("3221225472::") + spamsumLength + spamsumLength/2

// AppendDigest appends Digest().String() to dst, allocating nothing when
// dst has MaxDigestLen bytes of room.
func (h *Hasher) AppendDigest(dst []byte) ([]byte, error) {
	l, tail, err := h.choose()
	if err != nil {
		return dst, err
	}
	dst = strconv.AppendUint(dst, blockMin<<l, 10)
	dst = append(dst, ':')
	dst = h.appendSignature(dst, l, spamsumLength, tail)
	dst = append(dst, ':')
	return h.appendSignature(dst, l+1, spamsumLength/2, tail), nil
}

// Hash computes the fuzzy hash of data and returns it in canonical string
// form. Hashing is deterministic and never fails for inputs within
// MaxInputSize.
func Hash(data []byte) (string, error) {
	var buf [MaxDigestLen]byte
	d, err := AppendHash(buf[:0], data)
	return string(d), err
}

// HashString is Hash for string inputs.
func HashString(s string) (string, error) {
	var h Hasher
	if err := h.writeSized(bytesOf(s)); err != nil {
		return "", err
	}
	var buf [MaxDigestLen]byte
	d, err := h.AppendDigest(buf[:0])
	return string(d), err
}

// AppendHash appends Hash(data) to dst.
func AppendHash(dst, data []byte) ([]byte, error) {
	var h Hasher
	if err := h.writeSized(data); err != nil {
		return dst, err
	}
	return h.AppendDigest(dst)
}

// HashDigest computes the fuzzy hash of data in parsed form.
func HashDigest(data []byte) (Digest, error) {
	var h Hasher
	if err := h.writeSized(data); err != nil {
		return Digest{}, err
	}
	return h.Digest()
}

// HashReader hashes r's contents, streamed to EOF.
func HashReader(r io.Reader) (string, error) {
	var h Hasher
	if _, err := io.Copy(&h, r); err != nil {
		return "", fmt.Errorf("ssdeep: reading input: %w", err)
	}
	var buf [MaxDigestLen]byte
	d, err := h.AppendDigest(buf[:0])
	return string(d), err
}

// writeSized writes all of an input whose length is known up front, so h
// keeps no level above the one the block-size search starts at plus one.
func (h *Hasher) writeSized(p []byte) error {
	if int64(len(p)) > MaxInputSize {
		return fmt.Errorf("ssdeep: input of %d bytes exceeds maximum", len(p))
	}
	h.reset(uint64(len(p)), true)
	if h.top == 1 {
		h.writeBase(p)
	} else {
		h.write(p)
	}
	return nil
}

// writeBase hashes all of an input the block-size search starts at level 0
// for (at most blockMin·spamsumLength bytes, most inputs by count). Its
// digest is level 0's first signature and level 1's second whatever the
// input, so those two are all it keeps: one CTPH pass at block size 3, with
// nothing to fork, split early or drop. It leaves the state Digest reads.
func (h *Hasher) writeBase(p []byte) {
	var rs rollingState
	h0, h1 := byte(pieceInit), byte(pieceInit)
	var k0, k1 byte
	for _, c := range p {
		rh := rs.roll(c)
		h0, h1 = stepPiece(h0, c), stepPiece(h1, c)
		if rh%3 != 2 {
			continue
		}
		if k0 < spamsumLength-1 {
			h.sigs[0][k0] = base64Chars[h0]
			h0 = pieceInit
		}
		k0 = min(k0+1, spamsumLength)
		if rh&1 != 0 { // level 1 triggers too
			if k1 < spamsumLength/2-1 {
				h.sigs[1][k1] = base64Chars[h1]
				h1 = pieceInit
			}
			k1 = min(k1+1, spamsumLength)
		}
	}
	h.roll, h.n, h.hi = rs, uint64(len(p)), 1
	h.count[0], h.count[1] = k0, k1
	h.lanes[0] = uint64(h0) | uint64(h1)<<8
	h.half[1] = h1 // level 1's hash stopped resetting at its cap
}
