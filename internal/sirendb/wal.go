// WAL segment format and recovery.
//
// Each shard appends to its own segment file "<path>.<shard>". A segment
// starts with a 10-byte magic and holds framed records:
//
//	[4B length] [4B checksum] [8B sequence] [payload…]
//
// checksum = uint32(xxhash(payload)) XOR mix(sequence), so a bitflip in
// either the payload or the sequence field is detected; the payload hash is
// computed outside the shard lock and only the cheap XOR happens inside.
// The sequence number is store-wide and strictly increasing within a
// segment, which lets replay restore global insertion order across segments
// and filter out residue a crash-interrupted Seal left behind (records with
// seq <= the seal marker's maxseq already live in a run). A record is only
// ever written to one segment file, so replay needs no duplicate filter.
//
// Recovery rules, per segment: a torn record header or payload at any point
// ends replay of that segment (crash mid-append); a framed record whose
// checksum or parse fails is skipped and counted (historic corruption);
// appends resume at the end of the valid prefix, overwriting torn residue —
// the seed implementation appended after the tear, leaving every later
// record unreachable to replay.
package sirendb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"siren/internal/wire"
	"siren/internal/xxhash"
)

const (
	segMagic     = "SIRENSEG1\n"
	recHdrSize   = 16 // length + checksum + sequence
	maxRecordLen = 64 << 20
)

func seqMix(seq uint64) uint32 { return uint32(seq) ^ uint32(seq>>32) }

func segmentPath(base string, i int) string {
	return base + "." + strconv.Itoa(i)
}

// recordMark locates one framed record in a buffer and carries its payload
// hash, so patchRecordSeq can fill in a sequence number.
type recordMark struct {
	off int
	sum uint32
}

// checkRecordLens rejects a batch holding a message the store could not read
// back. One whose encoding exceeds maxRecordLen: replay treats an oversized
// length field as a torn tail, so writing one would make the record — and
// every record after it in the segment — unreplayable. One whose encoding
// does not scan — a header value holding '|', or a chunk outside
// 0 <= Seq < Total — would be acknowledged and then counted corrupt by the
// next open.
func checkRecordLens(ms []wire.Message) error {
	for i := range ms {
		m := &ms[i]
		if n := wire.EncodedLen(m); n > maxRecordLen {
			return fmt.Errorf("sirendb: message of %d bytes exceeds the %d-byte record limit", n, maxRecordLen)
		}
		for _, v := range [...]string{m.JobID, m.StepID, m.Hash, m.Host, m.Layer, m.Type} {
			if strings.IndexByte(v, '|') >= 0 {
				return fmt.Errorf("sirendb: %w: header value %q holds '|'", wire.ErrMalformed, v)
			}
		}
		if m.Total < 1 || m.Seq < 0 || m.Seq >= m.Total {
			return fmt.Errorf("sirendb: %w: chunk %d/%d out of range", wire.ErrMalformed, m.Seq, m.Total)
		}
	}
	return nil
}

func patchRecordSeq(buf []byte, mk recordMark, seq uint64) {
	binary.LittleEndian.PutUint32(buf[mk.off+4:], mk.sum^seqMix(seq))
	binary.LittleEndian.PutUint64(buf[mk.off+8:], seq)
}

type segmentFile struct {
	index int
	path  string
}

// discoverSegments lists existing "<base>.<n>" segment files in ascending
// index order, ignoring the lock file and temporaries.
func discoverSegments(base string) ([]segmentFile, error) {
	dir, name := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sirendb: %w", err)
	}
	var segs []segmentFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), name+".") {
			continue
		}
		idx, err := strconv.Atoi(e.Name()[len(name)+1:])
		if err != nil || idx < 0 {
			continue // ".lock", ".seal-commit", ".run.G.S", or unrelated
		}
		segs = append(segs, segmentFile{index: idx, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

// checkBasePath refuses a store whose base path is itself a file. The store
// lives in "<path>.<suffix>" files only, so a file at path (a database of
// another format, a mistyped -db) would otherwise be ignored and an empty
// store opened beside it — a zero-row campaign reported as success.
func checkBasePath(path string) error {
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("sirendb: %s is a file, not a store base path", path)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("sirendb: %w", err)
	}
	return nil
}

// openSegments replays everything on disk and, on a writable open, leaves
// each shard with an append-ready WAL handle. Called once from OpenOptions,
// before any other concurrency exists.
//
// A writable open replays the segments of the current shard count (creating
// any that are missing, rewriting a torn magic); a read-only open replays
// the segments that exist from read-only handles, and nothing on disk is
// created, repaired, truncated, or swept — the shared lock guarantees no
// writer is live, so the on-disk state is quiescent. Segment k's rows belong
// to shard k % shards, the rule attachRun applies to run files, so both
// replay leftover segments of a larger previous shard count read-only into
// the shard the rule names, and a writable open remembers them so Seal can
// delete them once those rows live in runs.
func (db *DB) openSegments() error {
	if err := checkBasePath(db.path); err != nil {
		return err
	}
	segs, err := discoverSegments(db.path)
	if err != nil {
		return err
	}
	// Attach the sealed tier — O(index) per run, no row replay — and sweep
	// debris from a seal that never committed. Sets the sealed-residue floor
	// the segment replay below filters against, so a crash between Seal's
	// commit marker and its segment truncation rolls forward here.
	if err := db.loadRuns(); err != nil {
		return err
	}

	writable := !db.opts.ReadOnly
	reps := make([]segReplay, 0, len(db.shards)+len(segs))
	if writable {
		for i := range db.shards {
			reps = append(reps, segReplay{own: i, writable: true})
		}
	}
	for _, sf := range segs {
		if writable && sf.index < len(db.shards) {
			reps[sf.index].path = sf.path
		} else {
			reps = append(reps, segReplay{path: sf.path, own: sf.index % len(db.shards)})
		}
	}
	created := false
	for i := range reps {
		if reps[i].path == "" { // an active segment not yet on disk
			reps[i].path = segmentPath(db.path, i)
			created = true
		}
	}

	err = db.replaySegments(reps)
	for i := range reps {
		r := &reps[i]
		switch {
		case r.f == nil:
		case err == nil && r.writable:
			if _, serr := r.f.Seek(r.end, io.SeekStart); serr != nil {
				err = fmt.Errorf("sirendb: seeking %s: %w", r.path, serr)
			}
			s := db.shards[r.own]
			s.wal = r.f // OpenOptions closes it if the open still fails
			s.written = r.end
			s.synced.Store(r.end)
		default:
			// A read-only replay handle has nothing durable at stake, and on
			// a failing open the replay error wins.
			_ = r.f.Close()
		}
	}
	if err != nil {
		return err
	}
	for i := range reps {
		r := &reps[i]
		if r.maxSeq > db.seq.Load() {
			db.seq.Store(r.maxSeq)
		}
		if writable && !r.writable {
			db.staleSegs = append(db.staleSegs, r.path)
		}
	}
	for _, s := range db.shards {
		s.head.sortBySeq()
	}
	if created {
		if err := fsyncDir(db.dir); err != nil {
			return fmt.Errorf("sirendb: %w", err)
		}
	}
	return nil
}

// segReplay is one segment file's replay. Between open and the join only
// the replay of this segment writes it.
type segReplay struct {
	path     string
	own      int  // the shard whose head this segment indexes into
	writable bool // an active segment of a writable open: created, repaired, kept open

	f      *os.File
	size   int64
	end    int64  // end of the valid prefix: where appends resume
	maxSeq uint64 // highest sequence number replayed
	err    error
}

// replaySegments opens every segment and replays those holding records, one
// goroutine per shard (the first on the caller's) replaying its segments in
// turn into its head, so none takes a lock. A shard that took more than one
// segment is re-sorted by sequence afterwards (openSegments). It returns the
// first error in segment order; the handles stay in reps either way.
func (db *DB) replaySegments(reps []segReplay) error {
	for i := range reps {
		if err := reps[i].open(); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	inline := -1
	for sh := range db.shards {
		if !holdsRecords(reps, sh) {
			continue
		}
		if inline < 0 {
			inline = sh
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.replayShard(reps, sh)
		}()
	}
	if inline >= 0 {
		db.replayShard(reps, inline)
	}
	wg.Wait()
	for i := range reps {
		if reps[i].err != nil {
			return reps[i].err
		}
	}
	return nil
}

// holdsRecords reports whether a segment of shard sh holds anything beyond
// its magic. It reads only what open set, so it may run beside replays.
func holdsRecords(reps []segReplay, sh int) bool {
	for i := range reps {
		if reps[i].own == sh && reps[i].size > int64(len(segMagic)) {
			return true
		}
	}
	return false
}

// replayShard replays into shard sh's head, in order, the segments whose
// rows belong to it. Calls for other shards share reps but read only the
// own field of this shard's segReplays, which nothing writes.
func (db *DB) replayShard(reps []segReplay, sh int) {
	for i := range reps {
		if r := &reps[i]; r.own == sh && r.end < r.size {
			if r.err = db.replaySegment(r); r.err != nil {
				return
			}
		}
	}
}

// open opens the segment and checks its magic. An empty or
// torn-at-creation writable segment gets the magic (re)written, so it is
// well-formed before any record lands; any other file is never mutated.
func (r *segReplay) open() error {
	var err error
	if r.writable {
		r.f, err = os.OpenFile(r.path, os.O_CREATE|os.O_RDWR, 0o644)
	} else {
		r.f, err = os.Open(r.path)
	}
	if err != nil {
		return fmt.Errorf("sirendb: opening %s: %w", r.path, err)
	}
	fi, err := r.f.Stat()
	if err != nil {
		return fmt.Errorf("sirendb: %w", err)
	}
	r.size = fi.Size()
	r.end = int64(len(segMagic))
	var magic [len(segMagic)]byte
	if n, err := r.f.ReadAt(magic[:], 0); n < len(magic) {
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("sirendb: reading %s: %w", r.path, err)
		}
		if r.writable {
			if _, err := r.f.WriteAt([]byte(segMagic), 0); err != nil {
				return fmt.Errorf("sirendb: writing segment header %s: %w", r.path, err)
			}
		}
		return nil
	}
	if string(magic[:]) != segMagic {
		return fmt.Errorf("sirendb: %s is not a sirendb WAL segment (bad magic)", r.path)
	}
	return nil
}

// replayWindow bounds how much of a segment replay reads into one chunk: a
// chunk is addressed with 32-bit offsets. Segments are normally far smaller
// and load in one read.
const replayWindow = 1 << 30

// replaySegment loads every intact record of an opened segment into the head
// of shard r.own, where its rows were written (a row InsertShard misrouted
// stays on the shard it was inserted into). It advances r.end to the end of
// the valid prefix.
//
// The segment's bytes become head chunks as they lie: replay reads the file
// in one read (or one per replayWindow), checks each record's frame and
// checksum, scans its header and indexes it in place. Nothing is decoded or
// copied per row.
func (db *DB) replaySegment(r *segReplay) error {
	for r.end < r.size {
		chunk := make([]byte, min(r.size-r.end, replayWindow))
		if _, err := r.f.ReadAt(chunk, r.end); err != nil {
			return fmt.Errorf("sirendb: replaying %s: %w", r.path, err)
		}
		last := r.end+int64(len(chunk)) == r.size
		used, stop := db.replayChunk(r, chunk, last)
		r.end += int64(used)
		if stop || used == 0 {
			break
		}
	}
	return nil
}

// replayChunk indexes the complete records at the front of chunk and
// returns how many bytes they span. stop reports the end of the segment's
// valid prefix: a torn header or payload in its last window, or an
// out-of-bounds length. Shard r.own's head adopts the chunk at its first row
// there.
func (db *DB) replayChunk(r *segReplay, chunk []byte, last bool) (used int, stop bool) {
	h := &db.shards[r.own].head
	h.entries = slices.Grow(h.entries, countFrames(chunk))
	adopted := -1 // the chunk's index in h, once adopted
	pos := 0
	for {
		if len(chunk)-pos < recHdrSize {
			return pos, last // clean end or torn header
		}
		length := binary.LittleEndian.Uint32(chunk[pos:])
		sum := binary.LittleEndian.Uint32(chunk[pos+4:])
		seq := binary.LittleEndian.Uint64(chunk[pos+8:])
		if length > maxRecordLen {
			return pos, true // out-of-bounds length: treat as torn tail
		}
		lo := pos + recHdrSize
		hi := lo + int(length)
		if hi > len(chunk) {
			return pos, last // torn payload, or the next window's
		}
		pos = hi
		payload := chunk[lo:hi]
		if uint32(xxhash.Sum64(payload))^seqMix(seq) != sum {
			// An in-bounds corrupt length lands here too: framing may now be
			// lost, but scanning on recovers any later intact records.
			db.corrupt.Add(1)
			continue
		}
		fields, err := wire.Scan(payload)
		if err != nil || !fields.Canonical {
			// Only insert writes records, and it writes canonical bytes
			// (DESIGN.md §3): a row that does not scan, or spells an integer
			// another way, was not written by this store.
			db.corrupt.Add(1)
			continue
		}
		if seq <= db.sealedSeq {
			// Sealed residue: the row's authoritative copy lives in a run
			// (Seal committed its marker but crashed before truncating this
			// segment). Not corruption — just roll-forward leftovers.
			continue
		}
		r.maxSeq = max(r.maxSeq, seq)
		if adopted < 0 {
			adopted = h.adopt(chunk)
		}
		h.index(adopted, lo, hi, &fields, seq)
		h.bytes += recHdrSize + int64(length)
	}
}

// countFrames counts the records framed at the front of chunk by their
// length fields alone, so replay grows the head's entries once per chunk
// rather than row by row. Records replay skips are counted too.
func countFrames(chunk []byte) int {
	n := 0
	for pos := 0; len(chunk)-pos >= recHdrSize; n++ {
		length := binary.LittleEndian.Uint32(chunk[pos:])
		if length > maxRecordLen || int(length) > len(chunk)-pos-recHdrSize {
			break
		}
		pos += recHdrSize + int(length)
	}
	return n
}

// fsyncDir flushes a directory's entries (renames, creates, removes) to
// stable storage — the step that makes an os.Rename crash-durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
