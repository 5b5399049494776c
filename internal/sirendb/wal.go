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
	"sort"
	"strconv"
	"strings"

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

// openSegments replays everything on disk and leaves each shard with an
// append-ready WAL handle. Called once from OpenOptions, before any
// concurrency exists.
func (db *DB) openSegments() error {
	if db.opts.ReadOnly {
		return db.openSegmentsReadOnly()
	}
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

	have := make(map[int]*segmentFile, len(segs))
	for i := range segs {
		have[segs[i].index] = &segs[i]
	}
	created := false
	for i, s := range db.shards {
		segPath := segmentPath(db.path, i)
		f, err := os.OpenFile(segPath, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("sirendb: opening %s: %w", segPath, err)
		}
		if _, ok := have[i]; !ok {
			created = true
		}
		validEnd, err := db.replaySegment(f, segPath, true)
		if err != nil {
			_ = f.Close() // open is failing; the replay error wins
			return err
		}
		if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
			_ = f.Close() // open is failing; the seek error wins
			return fmt.Errorf("sirendb: seeking %s: %w", segPath, err)
		}
		s.wal = f
		s.written = validEnd
		s.synced.Store(validEnd)
	}
	// Leftover segments from a larger previous shard count: replay their
	// rows (hash routing folds them into the current shards) and remember
	// them so Seal can delete them once those rows live in runs. Until then
	// they are read-only.
	for _, sf := range segs {
		if sf.index < len(db.shards) {
			continue
		}
		f, err := os.Open(sf.path)
		if err != nil {
			return fmt.Errorf("sirendb: opening %s: %w", sf.path, err)
		}
		_, err = db.replaySegment(f, sf.path, false)
		_ = f.Close() // read-only replay handle; nothing durable at stake
		if err != nil {
			return err
		}
		db.staleSegs = append(db.staleSegs, sf.path)
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

// openSegmentsReadOnly is the serving-tier open: sealed runs attach in
// O(index), segments replay from read-only handles, and nothing on disk is
// created, repaired, truncated, or swept. The shared lock guarantees no
// writer is live (a writer's exclusive lock would have excluded us), so the
// on-disk state is quiescent.
func (db *DB) openSegmentsReadOnly() error {
	if err := checkBasePath(db.path); err != nil {
		return err
	}
	if err := db.loadRuns(); err != nil {
		return err
	}
	segs, err := discoverSegments(db.path)
	if err != nil {
		return err
	}
	for _, sf := range segs {
		f, err := os.Open(sf.path)
		if err != nil {
			return fmt.Errorf("sirendb: opening %s: %w", sf.path, err)
		}
		_, err = db.replaySegment(f, sf.path, false)
		_ = f.Close() // read-only replay handle; nothing durable at stake
		if err != nil {
			return err
		}
	}
	for _, s := range db.shards {
		s.head.sortBySeq()
	}
	return nil
}

// replayWindow bounds how much of a segment replay reads into one chunk: a
// chunk is addressed with 32-bit offsets. Segments are normally far smaller
// and load in one read.
const replayWindow = 1 << 30

// replaySegment loads every intact record of one segment file into the
// heads, routing each row to its shard by hash (the segment a record sits in
// is only a locality hint — records in the "wrong" segment still land
// correctly). It returns the end of the valid prefix — where
// appends must resume. repairHeader rewrites a missing/torn magic on
// writable active segments; leftover segments are opened read-only and must
// not be mutated.
//
// The segment's bytes become head chunks as they lie: replay reads the file
// in one read (or one per replayWindow), checks each record's frame and
// checksum, scans its header and indexes it in place. Nothing is decoded or
// copied per row.
func (db *DB) replaySegment(f *os.File, name string, repairHeader bool) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("sirendb: %w", err)
	}
	size := fi.Size()
	magic := make([]byte, len(segMagic))
	if n, err := f.ReadAt(magic, 0); n < len(magic) {
		if err != nil && !errors.Is(err, io.EOF) {
			return 0, fmt.Errorf("sirendb: reading %s: %w", name, err)
		}
		// Empty or torn-at-creation file: (re)write the magic so the
		// segment is well-formed before any record lands.
		if repairHeader {
			if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
				return 0, fmt.Errorf("sirendb: writing segment header %s: %w", name, err)
			}
		}
		return int64(len(segMagic)), nil
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("sirendb: %s is not a sirendb WAL segment (bad magic)", name)
	}
	off := int64(len(segMagic)) // file offset of the next record
	for off < size {
		chunk := make([]byte, min(size-off, replayWindow))
		if _, err := f.ReadAt(chunk, off); err != nil {
			return 0, fmt.Errorf("sirendb: replaying %s: %w", name, err)
		}
		last := off+int64(len(chunk)) == size
		used, stop := db.replayChunk(chunk, last)
		off += int64(used)
		if stop || used == 0 {
			break
		}
	}
	return off, nil
}

// replayChunk indexes the complete records at the front of chunk and
// returns how many bytes they span. stop reports the end of the segment's
// valid prefix: a torn header or payload in its last window, or an
// out-of-bounds length. A shard a record routes to adopts the chunk the
// first time.
func (db *DB) replayChunk(chunk []byte, last bool) (used int, stop bool) {
	adopted := make([]int, len(db.shards)) // chunk index in each shard's head, plus one
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
		if cur := db.seq.Load(); seq > cur {
			db.seq.Store(seq)
		}
		sh := db.shardIndex(fields.Value(payload, wire.FieldJobID), fields.Value(payload, wire.FieldHost))
		h := &db.shards[sh].head
		if adopted[sh] == 0 {
			adopted[sh] = h.adopt(chunk) + 1
		}
		h.index(adopted[sh]-1, lo, hi, &fields, seq)
		h.bytes += recHdrSize + int64(length)
	}
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
