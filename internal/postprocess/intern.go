// What a record keeps, copied out once per distinct value.
//
// SIREN recognises repeated executions, so a campaign's records hold few
// distinct strings and lists: the same executable paths, digests and
// loaded-object lists come back job after job. A record keeps nothing that
// points into the rows (a run mapping is unmapped, a head chunk would be
// pinned whole), so what it keeps is copied out; the kernel copies each
// value once and hands every later record the same copy. Two
// direct-mapped caches do it, one entry per slot, a newer entry replacing an
// older one:
//
//   - strings, copied into arena blocks (one allocation per block, not per
//     string);
//   - lists, whose items come from the string cache.
//
// A slot holds its key's hash, checked before any bytes are compared: where
// nothing repeats (a catalogue of distinct builds, every digest new), a
// miss costs a hash and one word compare. The tables belong to one kernel,
// so to one worker of one pass, and grow with the lookups they serve, up to
// cacheSlots: a catalog refresh of one small job allocates small tables,
// and none for what it never looks up.
package postprocess

import (
	"hash/maphash"
	"strings"
)

const (
	// tableMin and cacheSlots bound each cache's table.
	tableMin   = 16
	cacheSlots = 4096
	// arenaMin and arenaMax bound an arena block. Blocks grow with the bytes
	// copied so far; a string longer than a quarter of the next block is
	// copied alone.
	arenaMin = 2 << 10
	arenaMax = 32 << 10
)

// slot is one entry of a direct-mapped table. h is its key's hash, never 0
// (hash sets the low bit), so h == 0 marks an empty slot.
type slot[V any] struct {
	h uint64
	v V
}

// table is a direct-mapped cache: a hash picks one slot. It starts at
// tableMin slots and doubles whenever it has served more lookups than it
// has slots, up to cacheSlots.
type table[V any] struct {
	slots   []slot[V]
	lookups int
}

// at returns the slot for hash h.
func (t *table[V]) at(h uint64) *slot[V] {
	if t.lookups++; t.lookups > len(t.slots) && len(t.slots) < cacheSlots {
		old := t.slots
		t.slots = make([]slot[V], max(tableMin, 2*len(old)))
		for _, e := range old {
			if e.h != 0 {
				t.slots[e.h&uint64(len(t.slots)-1)] = e
			}
		}
	}
	return &t.slots[h&uint64(len(t.slots)-1)]
}

// caches is a kernel's memory of what it has copied out. Its zero value is
// ready.
type caches struct {
	seed   maphash.Seed
	seeded bool
	strs   table[string]
	lists  table[[]string]
	arena  strings.Builder // the current block; copied strings are views of it
	copied int             // bytes copied out
}

// hash hashes a key under the kernel's seed, drawn on first use, so a
// sender cannot choose keys that share a slot; the low bit is set, keeping 0
// for empty slots.
func (c *caches) hash(s string) uint64 {
	if !c.seeded {
		c.seed, c.seeded = maphash.MakeSeed(), true
	}
	return maphash.String(c.seed, s) | 1
}

// str returns a string equal to s that points into no row: one copied out
// before, or a new copy.
func (c *caches) str(s string) string {
	if s == "" {
		return ""
	}
	h := c.hash(s)
	e := c.strs.at(h)
	if e.h == h && e.v == s {
		return e.v
	}
	*e = slot[string]{h, c.copyOut(s)}
	return e.v
}

// copyOut copies s into the arena. A strings.Builder is the arena because
// it grows without zeroing and only ever appends: a block, once sized, is
// never moved, so a view of its String stays valid.
func (c *caches) copyOut(s string) string {
	c.copied += len(s)
	if len(s) > c.arena.Cap()-c.arena.Len() {
		size := min(arenaMax, max(arenaMin, c.copied))
		if len(s) > size/4 {
			return strings.Clone(s)
		}
		c.arena = strings.Builder{}
		c.arena.Grow(size)
	}
	lo := c.arena.Len()
	c.arena.WriteString(s) // within its capacity
	return c.arena.String()[lo:]
}

// list returns the non-empty lines of content, nil when there are none: a
// list handed out before when its lines are equal, else a new one of
// copied-out strings.
func (c *caches) list(content string) []string {
	if content == "" {
		return nil
	}
	h := c.hash(content)
	e := c.lists.at(h)
	if e.h == h && sameLines(content, e.v) {
		return e.v
	}
	l := splitLines(content)
	if l == nil {
		return nil
	}
	for i, s := range l {
		l[i] = c.str(s)
	}
	*e = slot[[]string]{h, l}
	return l
}

// sameLines reports whether items are the non-empty lines of content.
func sameLines(content string, items []string) bool {
	n := 0
	for content != "" {
		var line string
		if line, content = cutLine(content); line == "" {
			continue
		}
		if n == len(items) || items[n] != line {
			return false
		}
		n++
	}
	return n == len(items)
}
