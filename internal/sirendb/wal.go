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
	"bufio"
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

// recordMark locates one framed record inside an encodeRecords buffer and
// carries its payload hash, so insertShard can patch the sequence in under
// the shard lock.
type recordMark struct {
	off int
	sum uint32
}

// encodeRecords frames ms into one contiguous buffer with zeroed checksum
// and sequence fields. Every record is appended straight into that buffer
// (wire.AppendEncode) and its length patched in afterwards; the buffer is
// sized up front from the field lengths, so a batch costs one allocation of
// WAL bytes however many rows it carries. A message exceeding maxRecordLen is
// rejected up front: replay treats an oversized length field as a torn tail,
// so writing one would make the record — and every record after it in the
// segment — silently unreplayable.
func encodeRecords(ms []wire.Message) (buf []byte, marks []recordMark, err error) {
	// Per record: the frame header, the wire format's fixed text (76 bytes)
	// and room for its four integers; a longer rendering just grows the buffer.
	size := 0
	for i := range ms {
		m := &ms[i]
		size += recHdrSize + 112 + len(m.JobID) + len(m.StepID) + len(m.Hash) + len(m.Host) +
			len(m.Layer) + len(m.Type) + len(m.Content)
	}
	buf = make([]byte, 0, size)
	marks = make([]recordMark, len(ms))
	var hdr [recHdrSize]byte
	for i := range ms {
		off := len(buf)
		buf = append(buf, hdr[:]...)
		buf = wire.AppendEncode(buf, ms[i])
		payload := buf[off+recHdrSize:]
		if len(payload) > maxRecordLen {
			return nil, nil, fmt.Errorf("sirendb: message of %d bytes exceeds the %d-byte record limit", len(payload), maxRecordLen)
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(payload)))
		marks[i] = recordMark{off: off, sum: uint32(xxhash.Sum64(payload))}
	}
	return buf, marks, nil
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
		validEnd, err := db.replaySegment(f, segPath, i, true)
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
		_, err = db.replaySegment(f, sf.path, sf.index, false)
		_ = f.Close() // read-only replay handle; nothing durable at stake
		if err != nil {
			return err
		}
		db.staleSegs = append(db.staleSegs, sf.path)
	}
	for _, s := range db.shards {
		s.rebuildIndex()
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
		_, err = db.replaySegment(f, sf.path, sf.index, false)
		_ = f.Close() // read-only replay handle; nothing durable at stake
		if err != nil {
			return err
		}
	}
	for _, s := range db.shards {
		s.rebuildIndex()
	}
	return nil
}

// replayMeanAfter is how many records replaySegment reads before it trusts
// their mean size to predict the rest of the segment.
const replayMeanAfter = 256

// replaySegment reads every intact record of one segment file, routing each
// row to its shard by hash (the segment's nominal owner, shard index, is only
// a locality hint — records in the "wrong" segment still land correctly). It
// returns the end of the valid prefix — where appends must resume.
// repairHeader rewrites a missing/torn magic on writable active segments;
// leftover segments are opened read-only and must not be mutated.
//
// Rows landing on the segment's own shard — all of them unless the shard
// count changed — reserve their slice from the file itself: the bytes left
// divided by the mean record size read so far, so a 100 000-row head is one
// or two allocations instead of seventeen doublings and their copies. The
// first replayMeanAfter records grow the slice the ordinary way: a mean taken
// from fewer is the size of whatever came first, and one small record ahead
// of near-MTU chunks would reserve an order of magnitude too many rows and
// hold them until the next Seal.
func (db *DB) replaySegment(f *os.File, name string, index int, repairHeader bool) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("sirendb: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("sirendb: %w", err)
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Empty or torn-at-creation file: (re)write the magic so the
			// segment is well-formed before any record lands.
			if repairHeader {
				if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
					return 0, fmt.Errorf("sirendb: writing segment header %s: %w", name, err)
				}
			}
			return int64(len(segMagic)), nil
		}
		return 0, fmt.Errorf("sirendb: reading %s: %w", name, err)
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("sirendb: %s is not a sirendb WAL segment (bad magic)", name)
	}
	off := int64(len(segMagic))
	var hdr [recHdrSize]byte
	var payload []byte // reused: wire.Parse copies what it keeps
	records := int64(0)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // clean end or torn header
			}
			return 0, fmt.Errorf("sirendb: replaying %s: %w", name, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		seq := binary.LittleEndian.Uint64(hdr[8:16])
		if length > maxRecordLen {
			return off, nil // out-of-bounds length: treat as torn tail
		}
		payload = slices.Grow(payload[:0], int(length))[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn payload
			}
			return 0, fmt.Errorf("sirendb: replaying %s: %w", name, err)
		}
		recEnd := off + recHdrSize + int64(length)
		records++
		if uint32(xxhash.Sum64(payload))^seqMix(seq) != sum {
			// An in-bounds corrupt length lands here too: framing may now be
			// lost, but scanning on recovers any later intact records.
			db.corrupt.Add(1)
			off = recEnd
			continue
		}
		msg, err := wire.Parse(payload)
		if err != nil {
			db.corrupt.Add(1)
			off = recEnd
			continue
		}
		off = recEnd
		if seq <= db.sealedSeq {
			// Sealed residue: the row's authoritative copy lives in a run
			// (Seal committed its marker but crashed before truncating this
			// segment). Not corruption — just roll-forward leftovers.
			continue
		}
		if cur := db.seq.Load(); seq > cur {
			db.seq.Store(seq)
		}
		sh, reserve := db.shardIndex(msg), 0
		if sh == index && size > recEnd && records >= replayMeanAfter {
			reserve = int((size - recEnd) * records / (recEnd - int64(len(segMagic))))
		}
		db.shards[sh].appendReplay(msg, seq, reserve)
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
