// Package runfmt is the immutable sealed-run file format of the sirendb
// storage tier — the read-optimised layer an LSM pairs with a write-ahead
// log. A run file freezes one store shard's rows at seal time into a sorted,
// checksummed, mmap-able artifact that later opens in O(index): readers map
// the file and decode only the footer and the embedded job index, never the
// rows, so opening a campaign-months store costs index size, not history
// size. Rows are decoded lazily, block by block, when a job is actually
// read.
//
// # Layout (version 1)
//
//	[10B header magic "SIRENRUN1\n"]
//	data:    blocks, each [4B payloadLen][4B checksum][payload]
//	index:   per-job, per-host extent directory (see below)
//	footer:  [8B indexOff][8B indexLen][8B indexSum][8B rows]
//	         [8B minSeq][8B maxSeq][4B version][4B reserved]
//	         [8B footer magic "SRUNFTR1"]  (64 bytes, at end of file)
//
// Rows are sorted by (JOBID, HOST, seq): every (job, host) group is
// contiguous, so one index extent — (host, offset, length, rows, seq range)
// under its job — locates a group's whole byte range. A block's payload is
// framed records ([4B recLen][8B seq][wire-encoded message]) belonging to
// exactly one (job, host) group; large groups span multiple blocks. The
// checksum is uint32(xxhash(payload)), verified when a block is first read,
// so historic bit rot is detected lazily without an O(rows) open. The index
// is covered by its own xxhash in the footer, and the footer sits at the end
// of the file — a torn tail from a crashed writer destroys the footer magic
// and the file is rejected at Open, never silently truncated.
//
// Within one (job, host) group rows are seq-ascending; across hosts of one
// job they are not. Cursors therefore k-way merge the extent streams by
// sequence number, reconstructing exactly the insertion order the WAL held.
package runfmt

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"siren/internal/wire"
	"siren/internal/xxhash"
)

const (
	headerMagic = "SIRENRUN1\n"
	footerMagic = "SRUNFTR1"
	footerSize  = 64

	// Version is the current run-file format version, stamped in the footer.
	Version = 1

	blockHdrSize = 8  // payload length + checksum
	recHdrSize   = 12 // record length + sequence

	// blockTarget bounds a block's payload: the unit of checksum
	// verification and of lazy decode. Large enough to amortise the
	// per-block hash, small enough that reading one job's first rows does
	// not fault in megabytes.
	blockTarget = 128 << 10

	// maxRecordLen mirrors the WAL's record bound; a length field beyond it
	// is corruption by definition.
	maxRecordLen = 64 << 20

	// writeBufSize is Write's output buffer: a (job, host) extent is often a
	// few kilobytes, and unbuffered each would cost two write(2) calls. Kept
	// cache-sized on purpose: for the same 27 MB run, write(2) measured ×1.0
	// CPU through 64 KiB, ×1.4 through 256 KiB and ×4.3 through 1 MiB, where
	// every byte misses cache twice, into the buffer and out of it.
	writeBufSize = 64 << 10
)

// ErrCorrupt wraps every integrity failure — bad magic, torn footer, index
// checksum mismatch, out-of-bounds extents, block checksum failures. Opens
// and reads fail loudly instead of silently dropping rows.
var ErrCorrupt = errors.New("runfmt: corrupt run file")

// Row is one sealed row: a message plus its store-wide sequence number.
type Row struct {
	Seq uint64
	Msg wire.Message
}

// extent locates one (job, host) group's contiguous block range.
type extent struct {
	host   string
	off    int64 // first block's offset
	length int64 // total bytes of the group's blocks (headers included)
	rows   int
	minSeq uint64
	maxSeq uint64
}

// jobIndex is one job's entry: its extents, host-sorted as written.
type jobIndex struct {
	job     string
	extents []extent
	rows    int
	minSeq  uint64
	maxSeq  uint64
}

// Write seals rows into a new run file at path. Rows may arrive in any
// order; they are sorted by (JOBID, HOST, seq) stably, encoded one at a time
// and handed to a Writer. rows itself is only read — the sort permutes
// references to it — so a caller may pass storage that concurrent readers
// share. Sealing zero rows is an error — an empty run carries no information
// an absent file doesn't.
func Write(path string, rows []Row) (int64, error) {
	if len(rows) == 0 {
		return 0, errEmptyRun
	}
	sorted := make([]*Row, len(rows))
	for i := range rows {
		sorted[i] = &rows[i]
	}
	slices.SortStableFunc(sorted, func(a, b *Row) int {
		if c := strings.Compare(a.Msg.JobID, b.Msg.JobID); c != 0 {
			return c
		}
		if c := strings.Compare(a.Msg.Host, b.Msg.Host); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	w, err := Create(path)
	if err != nil {
		return 0, err
	}
	var payload []byte
	for _, r := range sorted {
		payload = wire.AppendEncode(payload[:0], r.Msg)
		if err := w.Add(r.Msg.JobID, r.Msg.Host, r.Seq, payload); err != nil {
			w.Abort()
			return 0, err
		}
	}
	return w.Close()
}

var errEmptyRun = errors.New("runfmt: refusing to write an empty run")

// Writer writes one run file from rows handed over already in (JOBID, HOST,
// seq) order, each as the wire bytes it is stored as: a row costs one copy
// into its block and is never encoded here. The file is written through one
// buffer; Close adds the index and footer, flushes, fsyncs and closes, and
// the caller owns directory durability (fsync the parent dir before trusting
// the file across a crash). A Writer is not safe for concurrent use.
type Writer struct {
	f    *os.File
	path string
	w    runWriter
	jobs []jobIndex
	ext  extent // the (job, host) group being written; rows 0 before the first Add
	rows int
	err  error // first failure; Add and Close report it
}

// Create starts a run file at path.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, path: path, w: runWriter{w: bufio.NewWriterSize(f, writeBufSize)}}
	w.err = w.w.write([]byte(headerMagic))
	return w, nil
}

// Add appends one row: its job and host, its store-wide sequence number and
// payload, its wire encoding. Rows must come in (job, host, seq) order.
func (w *Writer) Add(job, host string, seq uint64, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > maxRecordLen {
		w.err = fmt.Errorf("runfmt: message of %d bytes exceeds the %d-byte record limit", len(payload), maxRecordLen)
		return w.err
	}
	if len(w.jobs) == 0 || job != w.jobs[len(w.jobs)-1].job || host != w.ext.host {
		if err := w.startGroup(job, host); err != nil {
			w.err = err
			return err
		}
	} else if seq < w.ext.maxSeq {
		w.err = fmt.Errorf("runfmt: row %d added after row %d of (%q, %q)", seq, w.ext.maxSeq, job, host)
		return w.err
	}
	ji := &w.jobs[len(w.jobs)-1]
	ji.rows++
	ji.minSeq, ji.maxSeq = min(ji.minSeq, seq), max(ji.maxSeq, seq)
	if w.ext.rows == 0 {
		w.ext.minSeq = seq
	}
	w.ext.rows++
	w.ext.maxSeq = seq
	var rec [recHdrSize]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:12], seq)
	w.w.payload = append(append(w.w.payload, rec[:]...), payload...)
	if len(w.w.payload) >= blockTarget {
		w.err = w.w.flushBlock()
	}
	return w.err
}

// startGroup ends the current (job, host) group and opens the next, and a
// new job entry when the job changes.
func (w *Writer) startGroup(job, host string) error {
	if len(w.jobs) > 0 {
		last := &w.jobs[len(w.jobs)-1]
		if job < last.job || job == last.job && host <= w.ext.host {
			return fmt.Errorf("runfmt: rows of (%q, %q) added after (%q, %q)", job, host, last.job, w.ext.host)
		}
		if err := w.endGroup(); err != nil {
			return err
		}
	}
	if len(w.jobs) == 0 || job != w.jobs[len(w.jobs)-1].job {
		w.jobs = append(w.jobs, jobIndex{job: job, minSeq: math.MaxUint64})
	}
	w.ext = extent{host: host, off: w.w.off}
	return nil
}

// endGroup flushes the current group's last block and files its extent
// under its job.
func (w *Writer) endGroup() error {
	if err := w.w.flushBlock(); err != nil {
		return err
	}
	w.ext.length = w.w.off - w.ext.off
	ji := &w.jobs[len(w.jobs)-1]
	ji.extents = append(ji.extents, w.ext)
	return nil
}

// Close finishes the run — last block, index, footer — makes it durable and
// returns the file size. A run with no rows is refused and removed.
func (w *Writer) Close() (int64, error) {
	if w.err == nil && len(w.jobs) == 0 {
		w.err = errEmptyRun
	}
	if w.err == nil {
		w.err = w.endGroup()
	}
	if w.err != nil {
		w.Abort()
		return 0, w.err
	}
	indexOff := w.w.off
	index := encodeIndex(w.jobs)
	var minSeq, maxSeq uint64
	for i, ji := range w.jobs {
		if i == 0 || ji.minSeq < minSeq {
			minSeq = ji.minSeq
		}
		maxSeq = max(maxSeq, ji.maxSeq)
		w.rows += ji.rows
	}
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(index)))
	binary.LittleEndian.PutUint64(footer[16:24], xxhash.Sum64(index))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(w.rows))
	binary.LittleEndian.PutUint64(footer[32:40], minSeq)
	binary.LittleEndian.PutUint64(footer[40:48], maxSeq)
	binary.LittleEndian.PutUint32(footer[48:52], Version)
	copy(footer[56:64], footerMagic)
	err := w.w.write(index)
	if err == nil {
		err = w.w.write(footer)
	}
	if err == nil {
		err = w.w.w.Flush()
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.err = err
		w.Abort()
		return 0, err
	}
	if err := w.f.Close(); err != nil {
		_ = os.Remove(w.path) // file state unknown after a failed close
		return 0, err
	}
	return w.w.off, nil
}

// Abort abandons the run and removes its file.
func (w *Writer) Abort() {
	_ = w.f.Close() // abandoning the partial file; the write error wins
	_ = os.Remove(w.path)
}

// runWriter tracks the write offset so extents can be recorded as blocks go
// out, and owns the one block-payload buffer rows are copied into.
type runWriter struct {
	w       *bufio.Writer
	off     int64
	payload []byte
}

func (w *runWriter) write(b []byte) error {
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.off += int64(len(b))
	return nil
}

// flushBlock writes the buffered records as one checksummed block.
func (w *runWriter) flushBlock() error {
	if len(w.payload) == 0 {
		return nil
	}
	var hdr [blockHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(w.payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(xxhash.Sum64(w.payload)))
	if err := w.write(hdr[:]); err != nil {
		return err
	}
	if err := w.write(w.payload); err != nil {
		return err
	}
	w.payload = w.payload[:0]
	return nil
}

// encodeIndex renders the job directory:
//
//	[4B jobCount]
//	per job:   [4B jobLen][job][4B extentCount]
//	per extent: [4B hostLen][host][8B off][8B len][8B rows][8B minSeq][8B maxSeq]
func encodeIndex(jobs []jobIndex) []byte {
	var b []byte
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		b = append(b, u32[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		b = append(b, u64[:]...)
	}
	put32(uint32(len(jobs)))
	for _, ji := range jobs {
		put32(uint32(len(ji.job)))
		b = append(b, ji.job...)
		put32(uint32(len(ji.extents)))
		for _, e := range ji.extents {
			put32(uint32(len(e.host)))
			b = append(b, e.host...)
			put64(uint64(e.off))
			put64(uint64(e.length))
			put64(uint64(e.rows))
			put64(e.minSeq)
			put64(e.maxSeq)
		}
	}
	return b
}

// Run is an opened run file: the mapped (or pread-backed) data plus the
// decoded job index. Opening is O(index); rows decode lazily on read.
// Runs are safe for concurrent readers.
type Run struct {
	path    string
	back    backing // mmap on unix, pread elsewhere
	size    int64
	dataEnd int64 // start of the index == end of the block region
	rows    int
	minSeq  uint64
	maxSeq  uint64
	version uint32
	jobs    []jobIndex
	byJob   map[string]int // job -> index into jobs
	names   []string       // job names, sorted (index order)
}

// Open maps the run file at path and decodes only its footer and job index —
// O(index) work regardless of row count. Every structural field is
// bounds-checked; a torn tail, a bad checksum, or a hostile index yields
// ErrCorrupt, never a partial silently-truncated run.
func Open(path string) (*Run, error) {
	back, size, err := openBacking(path)
	if err != nil {
		return nil, err
	}
	r := &Run{path: path, back: back, size: size}
	if err := r.load(); err != nil {
		_ = back.Close() // open is failing; the corruption error wins
		return nil, err
	}
	return r, nil
}

func (r *Run) load() error {
	if r.size < int64(len(headerMagic))+footerSize {
		return fmt.Errorf("%w: %s: %d bytes is too small for a run", ErrCorrupt, r.path, r.size)
	}
	hdr, err := r.back.Slice(0, int64(len(headerMagic)))
	if err != nil {
		return err
	}
	if string(hdr) != headerMagic {
		return fmt.Errorf("%w: %s: bad header magic", ErrCorrupt, r.path)
	}
	footer, err := r.back.Slice(r.size-footerSize, footerSize)
	if err != nil {
		return err
	}
	if string(footer[56:64]) != footerMagic {
		return fmt.Errorf("%w: %s: bad footer magic (torn tail?)", ErrCorrupt, r.path)
	}
	r.version = binary.LittleEndian.Uint32(footer[48:52])
	if r.version != Version {
		return fmt.Errorf("runfmt: %s: unsupported run format version %d", r.path, r.version)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	indexSum := binary.LittleEndian.Uint64(footer[16:24])
	r.rows = int(binary.LittleEndian.Uint64(footer[24:32]))
	r.minSeq = binary.LittleEndian.Uint64(footer[32:40])
	r.maxSeq = binary.LittleEndian.Uint64(footer[40:48])
	if indexOff < int64(len(headerMagic)) || indexLen < 0 || indexOff+indexLen != r.size-footerSize {
		return fmt.Errorf("%w: %s: index [%d,+%d) does not abut the footer", ErrCorrupt, r.path, indexOff, indexLen)
	}
	// A row needs at least a record header; a count beyond that bound can
	// only come from corruption and must not size any allocation.
	if r.rows < 0 || int64(r.rows) > r.size/recHdrSize {
		return fmt.Errorf("%w: %s: implausible row count %d", ErrCorrupt, r.path, r.rows)
	}
	index, err := r.back.Slice(indexOff, indexLen)
	if err != nil {
		return err
	}
	if xxhash.Sum64(index) != indexSum {
		return fmt.Errorf("%w: %s: index checksum mismatch", ErrCorrupt, r.path)
	}
	r.dataEnd = indexOff
	return r.decodeIndex(index)
}

// decodeIndex parses the job directory, validating every length and extent
// against the file bounds — the index is attacker-adjacent input for the
// fuzzer even though the checksum gates it in practice.
func (r *Run) decodeIndex(b []byte) error {
	bad := func(what string) error {
		return fmt.Errorf("%w: %s: index %s", ErrCorrupt, r.path, what)
	}
	pos := 0
	u32 := func() (uint32, bool) {
		if pos+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[pos:])
		pos += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if pos+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[pos:])
		pos += 8
		return v, true
	}
	str := func(n uint32) (string, bool) {
		if int64(n) > int64(len(b)-pos) {
			return "", false
		}
		s := string(b[pos : pos+int(n)])
		pos += int(n)
		return s, true
	}
	nJobs, ok := u32()
	if !ok || int64(nJobs) > int64(len(b))/8 {
		return bad("job count out of bounds")
	}
	r.jobs = make([]jobIndex, 0, nJobs)
	r.byJob = make(map[string]int, nJobs)
	r.names = make([]string, 0, nJobs)
	sum := 0
	for ji := uint32(0); ji < nJobs; ji++ {
		n, ok := u32()
		if !ok {
			return bad("truncated job name length")
		}
		job, ok := str(n)
		if !ok {
			return bad("truncated job name")
		}
		nExt, ok := u32()
		if !ok || int64(nExt) > int64(len(b))/8 {
			return bad("extent count out of bounds")
		}
		entry := jobIndex{job: job, extents: make([]extent, 0, nExt)}
		for ei := uint32(0); ei < nExt; ei++ {
			hn, ok := u32()
			if !ok {
				return bad("truncated host name length")
			}
			host, ok := str(hn)
			if !ok {
				return bad("truncated host name")
			}
			off, ok1 := u64()
			length, ok2 := u64()
			rows, ok3 := u64()
			minSeq, ok4 := u64()
			maxSeq, ok5 := u64()
			if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
				return bad("truncated extent")
			}
			if off < uint64(len(headerMagic)) || length > uint64(r.dataEnd) || off+length > uint64(r.dataEnd) || off+length < off {
				return bad("extent outside the data region")
			}
			if rows > length/recHdrSize {
				return bad("implausible extent row count")
			}
			entry.extents = append(entry.extents, extent{
				host: host, off: int64(off), length: int64(length),
				rows: int(rows), minSeq: minSeq, maxSeq: maxSeq,
			})
			entry.rows += int(rows)
			if len(entry.extents) == 1 || minSeq < entry.minSeq {
				entry.minSeq = minSeq
			}
			if maxSeq > entry.maxSeq {
				entry.maxSeq = maxSeq
			}
		}
		if len(entry.extents) == 0 {
			return bad("job with no extents")
		}
		if _, dup := r.byJob[job]; dup {
			return bad("duplicate job entry")
		}
		sum += entry.rows
		r.byJob[job] = len(r.jobs)
		r.jobs = append(r.jobs, entry)
		r.names = append(r.names, job)
	}
	if pos != len(b) {
		return bad("trailing bytes")
	}
	if sum != r.rows {
		return bad("row counts disagree with footer")
	}
	if !sort.StringsAreSorted(r.names) {
		return bad("jobs not sorted")
	}
	return nil
}

// Close releases the mapping (or the file handle). Callers that hand rows
// out lazily — snapshots — must keep the Run reachable instead of closing
// it; the finalizer installed by the unix backing reclaims the mapping when
// the last reference is garbage. Close is idempotent.
func (r *Run) Close() error { return r.back.Close() }

// Path returns the run file's path.
func (r *Run) Path() string { return r.path }

// Rows reports the run's total row count (from the footer — O(1)).
func (r *Run) Rows() int { return r.rows }

// MinSeq reports the smallest sequence number stored in the run.
func (r *Run) MinSeq() uint64 { return r.minSeq }

// MaxSeq reports the largest sequence number stored in the run.
func (r *Run) MaxSeq() uint64 { return r.maxSeq }

// Size reports the file size in bytes.
func (r *Run) Size() int64 { return r.size }

// Jobs returns the run's distinct job IDs, sorted. The slice is the Run's
// own index order — callers must not mutate it.
func (r *Run) Jobs() []string { return r.names }

// HasJob reports whether the run holds any rows of job.
func (r *Run) HasJob(job string) bool {
	_, ok := r.byJob[job]
	return ok
}

// JobStats reports one job's row count and sequence range, from the index —
// O(1), no row decode.
func (r *Run) JobStats(job string) (rows int, minSeq, maxSeq uint64, ok bool) {
	i, ok := r.byJob[job]
	if !ok {
		return 0, 0, 0, false
	}
	ji := &r.jobs[i]
	return ji.rows, ji.minSeq, ji.maxSeq, true
}

// EachJob visits every job entry in sorted order with its index-level stats;
// return false to stop. O(index), no row decode.
func (r *Run) EachJob(f func(job string, rows int, minSeq, maxSeq uint64) bool) {
	for i := range r.jobs {
		ji := &r.jobs[i]
		if !f(ji.job, ji.rows, ji.minSeq, ji.maxSeq) {
			return
		}
	}
}

// Cursor streams a run's rows in ascending sequence order, k-way merging
// the per-(job, host) extent streams. Blocks load (and checksum-verify)
// lazily as the cursor crosses them. The merge compares the sequence numbers
// in the record headers and scans only the row it hands out, in place, as a
// view of the block (NextScanned).
type Cursor struct {
	streams []*extentCursor
	best    int // stream holding the next row once PeekSeq found it, else -1
	bestSeq uint64
	err     error
}

// Cursor returns a cursor over every row of the run, seq-ascending.
func (r *Run) Cursor() *Cursor {
	c := &Cursor{best: -1}
	for i := range r.jobs {
		for e := range r.jobs[i].extents {
			c.streams = append(c.streams, newExtentCursor(r, &r.jobs[i].extents[e]))
		}
	}
	return c
}

// JobCursor returns a cursor over one job's rows, seq-ascending (its host
// extents merged). A job absent from the run yields an immediately-empty
// cursor.
func (r *Run) JobCursor(job string) *Cursor {
	c := &Cursor{best: -1}
	i, ok := r.byJob[job]
	if !ok {
		return c
	}
	for e := range r.jobs[i].extents {
		c.streams = append(c.streams, newExtentCursor(r, &r.jobs[i].extents[e]))
	}
	return c
}

// PeekSeq reports the sequence number of the next row without decoding it.
// ok=false means exhausted or failed — check Err to distinguish.
func (c *Cursor) PeekSeq() (seq uint64, ok bool) {
	if c.err != nil {
		return 0, false
	}
	if c.best >= 0 {
		return c.bestSeq, true
	}
	for i, s := range c.streams {
		seq, ok, err := s.peekSeq()
		if err != nil {
			c.err = err
			return 0, false
		}
		if ok && (c.best < 0 || seq < c.bestSeq) {
			c.best, c.bestSeq = i, seq
		}
	}
	return c.bestSeq, c.best >= 0
}

// NextScanned scans the next row in sequence order in place into *row and
// returns its sequence number: row.Datagram is a view of the verified block
// in the run's mapping, valid only while the Run is reachable and open, so
// nothing built from it may keep it. ok=false means exhausted or failed —
// check Err to distinguish.
func (c *Cursor) NextScanned(row *wire.Scanned) (seq uint64, ok bool) {
	if seq, ok = c.PeekSeq(); !ok {
		return 0, false
	}
	s := c.streams[c.best]
	c.best = -1
	if err := s.scanInto(row); err != nil {
		c.err = err
		return 0, false
	}
	return seq, true
}

// Err reports the first corruption or decode error the cursor hit; nil
// after a clean exhaustion.
func (c *Cursor) Err() error { return c.err }

// extentCursor walks one (job, host) extent block by block.
type extentCursor struct {
	r       *Run
	off     int64 // next unread block
	end     int64
	payload []byte // current block's verified payload
	pos     int    // start of the next record's header within payload
}

func newExtentCursor(r *Run, e *extent) *extentCursor {
	return &extentCursor{r: r, off: e.off, end: e.off + e.length}
}

func (ec *extentCursor) corrupt(what string) error {
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, ec.r.path, what)
}

// peekSeq reports the sequence number of the next record without decoding
// it: the record header is read in place, loading and verifying the next
// block when the current payload is exhausted, and its length is checked
// against the block so decodeInto cannot run past it.
func (ec *extentCursor) peekSeq() (uint64, bool, error) {
	for ec.pos >= len(ec.payload) {
		if ec.off >= ec.end {
			return 0, false, nil
		}
		if err := ec.loadBlock(); err != nil {
			return 0, false, err
		}
	}
	if ec.pos+recHdrSize > len(ec.payload) {
		return 0, false, ec.corrupt("torn record header inside a verified block")
	}
	length := binary.LittleEndian.Uint32(ec.payload[ec.pos:])
	if length > maxRecordLen || ec.pos+recHdrSize+int(length) > len(ec.payload) {
		return 0, false, ec.corrupt("record length outside its block")
	}
	return binary.LittleEndian.Uint64(ec.payload[ec.pos+4:]), true, nil
}

// scanInto scans the record peekSeq last reported into *row, in place, and
// steps past it; it is only valid right after a successful peekSeq. A record
// that does not scan, or is not canonical, was not written by a store —
// runs are sealed from the head, which holds only canonical bytes — so it is
// corrupt.
func (ec *extentCursor) scanInto(row *wire.Scanned) error {
	length := int(binary.LittleEndian.Uint32(ec.payload[ec.pos:]))
	start := ec.pos + recHdrSize
	end := start + length
	f, err := wire.Scan(ec.payload[start:end])
	if err != nil {
		return ec.corrupt(fmt.Sprintf("undecodable record: %v", err))
	}
	if !f.Canonical {
		return ec.corrupt("non-canonical record")
	}
	row.Datagram, row.Fields = ec.payload[start:end:end], f
	ec.pos = end
	return nil
}

// loadBlock reads and checksum-verifies the block at ec.off.
func (ec *extentCursor) loadBlock() error {
	bad := func(what string) error {
		return fmt.Errorf("%w: %s: %s at offset %d", ErrCorrupt, ec.r.path, what, ec.off)
	}
	hdr, err := ec.r.back.Slice(ec.off, blockHdrSize)
	if err != nil {
		return err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(plen) > ec.end-ec.off-blockHdrSize {
		return bad("block length outside its extent")
	}
	payload, err := ec.r.back.Slice(ec.off+blockHdrSize, int64(plen))
	if err != nil {
		return err
	}
	if uint32(xxhash.Sum64(payload)) != sum {
		return bad("block checksum mismatch")
	}
	ec.off += blockHdrSize + int64(plen)
	ec.payload = payload
	ec.pos = 0
	return nil
}
