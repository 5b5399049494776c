// The WAL head in memory: the framed WAL records themselves, plus an index.
//
// A shard's head keeps every row as the bytes it arrived in. Rows are framed
// exactly as the segment holds them ([4B length][4B checksum][8B seq]
// [payload]) and appended to byte chunks, so an insert copies each datagram
// once — behind its frame header — and the batch's new byte range is the
// write(2) buffer of the WAL append. Beside the chunks sits a fixed-width,
// pointer-free index: one entry per row with its sequence number, where its
// bytes lie, its four header integers and per-shard ordinals of its six
// header strings. A read builds its view of the row from the entry's
// integers and the lengths of its interned strings, so reading the head never
// parses;
// Seal sorts entries and copies payload ranges into run blocks, so sealing
// never encodes.
//
// Everything here only grows until Seal replaces the head: chunk bytes below
// the fill mark, the entries, the string tables and each job's row list are
// never rewritten, so a snapshot captures them as slice headers (the job
// lists' outer slice is copied, as its elements change in place).
package sirendb

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"siren/internal/sirendb/runfmt"
	"siren/internal/wire"
	"siren/internal/xxhash"
)

// headChunkSize is the size of a head chunk. A chunk is pointer-free, so the
// collector never scans it; one is allocated per few thousand rows.
const headChunkSize = 4 << 20

// maxBatchBytes bounds one insert batch's framed bytes: a batch is one
// contiguous chunk range, addressed with 32-bit offsets.
const maxBatchBytes = 1 << 30

// entry is one head row's index entry.
type entry struct {
	seq     uint64
	time    int64
	pid     int
	cseq    int // the datagram's SEQ (chunk index)
	total   int
	chunk   uint32 // head chunk holding the record
	payload uint32 // [payload, end) is the datagram within the chunk
	content uint32
	end     uint32
	vals    [wire.StringFields]uint32 // ordinals in the head's string tables
}

// strTable interns one header field's values. Ordinals are dense, in first
// appearance order, and strs is append-only, so a captured prefix never
// changes. Rows arrive in runs of one process, so most values repeat the
// last one and are matched without a lookup.
type strTable struct {
	strs  []string
	index map[string]uint32
	last  uint32
}

func (t *strTable) intern(v []byte) uint32 {
	if int(t.last) < len(t.strs) && t.strs[t.last] == string(v) {
		return t.last
	}
	o, ok := t.index[string(v)]
	if !ok {
		if t.index == nil {
			t.index = make(map[string]uint32)
		}
		s := string(v)
		o = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.index[s] = o
	}
	t.last = o
	return o
}

// head is one shard's WAL head (see the file comment). It is guarded by the
// shard's mu.
type head struct {
	chunks  [][]byte // full-length chunks; rows fill the last one front to back
	fill    int      // bytes used in the last chunk
	entries []entry  // seq-ascending
	vals    [wire.StringFields]strTable
	jobRows [][]uint32     // entry indexes per JOBID ordinal, seq-ascending
	bytes   int64          // framed bytes indexed
	staged  []wire.Scanned // stageMessages' rows, reused
}

// stage frames ds into the last chunk — a new one when the batch does not
// fit — behind record headers carrying seqs first, first+1, …, and returns
// the bytes written: the WAL append. The rows are invisible until commit.
func (h *head) stage(ds []wire.Scanned, first uint64) []byte {
	need := 0
	for i := range ds {
		need += recHdrSize + len(ds[i].Datagram)
	}
	c, off := h.room(need), h.fill
	for i := range ds {
		n := copy(c[off+recHdrSize:], ds[i].Datagram)
		frameRecord(c[off:], n, first+uint64(i))
		off += recHdrSize + n
	}
	return c[h.fill:off]
}

// stageMessages is stage for Messages: each is encoded straight into the
// chunk behind its record header. It returns the framed bytes and the rows
// as datagrams in the chunk, for commit.
func (h *head) stageMessages(ms []wire.Message, first uint64) ([]byte, []wire.Scanned) {
	need := 0
	for i := range ms {
		need += recHdrSize + wire.EncodedLen(&ms[i])
	}
	c, off := h.room(need), h.fill
	h.staged = h.staged[:0]
	for i := range ms {
		// c's capacity is its length and need is the encodings' total, so
		// the append stays in c.
		enc, f := wire.AppendEncodeFields(c[:off+recHdrSize], &ms[i])
		n := len(enc) - off - recHdrSize
		frameRecord(c[off:], n, first+uint64(i))
		h.staged = append(h.staged, wire.Scanned{Datagram: c[off+recHdrSize : off+recHdrSize+n], Fields: f})
		off += recHdrSize + n
	}
	return c[h.fill:off], h.staged
}

// room returns the chunk the next need bytes go to at h.fill: the last one,
// or a new one when they do not fit.
func (h *head) room(need int) []byte {
	if len(h.chunks) == 0 || len(h.chunks[len(h.chunks)-1])-h.fill < need {
		h.chunks = append(h.chunks, make([]byte, max(headChunkSize, need)))
		h.fill = 0
	}
	return h.chunks[len(h.chunks)-1]
}

// frameRecord fills in the header of the record at rec[0:], whose payload of
// n bytes follows it.
func frameRecord(rec []byte, n int, seq uint64) {
	binary.LittleEndian.PutUint32(rec, uint32(n))
	patchRecordSeq(rec, recordMark{sum: uint32(xxhash.Sum64(rec[recHdrSize : recHdrSize+n]))}, seq)
}

// commit indexes the rows stage framed, making them visible.
func (h *head) commit(ds []wire.Scanned, first uint64) {
	ci := len(h.chunks) - 1
	off := h.fill
	for i := range ds {
		lo := off + recHdrSize
		off = lo + len(ds[i].Datagram)
		h.index(ci, lo, off, &ds[i].Fields, first+uint64(i))
	}
	h.bytes += int64(off - h.fill)
	h.fill = off
}

// index adds the entry of the row whose datagram is chunk ci's [lo, hi),
// scanned as f.
func (h *head) index(ci, lo, hi int, f *wire.Fields, seq uint64) {
	e := entry{
		seq: seq, time: f.Time, pid: f.PID, cseq: f.Seq, total: f.Total,
		chunk: uint32(ci), payload: uint32(lo), content: uint32(lo + f.Content), end: uint32(hi),
	}
	d := h.chunks[ci][lo:hi]
	for k := range e.vals {
		e.vals[k] = h.vals[k].intern(f.Value(d, k))
	}
	job := e.vals[wire.FieldJobID]
	for int(job) >= len(h.jobRows) {
		h.jobRows = append(h.jobRows, nil)
	}
	h.jobRows[job] = append(h.jobRows[job], uint32(len(h.entries)))
	h.entries = append(h.entries, e)
}

// adopt appends a chunk that is never written to — a replayed segment — and
// returns its index.
func (h *head) adopt(c []byte) int {
	h.chunks = append(h.chunks, c)
	h.fill = len(c)
	return len(h.chunks) - 1
}

// sortBySeq restores seq order after a replay that interleaved segments
// (leftovers of an older shard count) and rebuilds the job lists to match.
func (h *head) sortBySeq() {
	bySeq := func(a, b entry) int { return cmp.Compare(a.seq, b.seq) }
	if slices.IsSortedFunc(h.entries, bySeq) {
		return
	}
	slices.SortStableFunc(h.entries, bySeq)
	for o := range h.jobRows {
		h.jobRows[o] = h.jobRows[o][:0]
	}
	for i := range h.entries {
		job := h.entries[i].vals[wire.FieldJobID]
		h.jobRows[job] = append(h.jobRows[job], uint32(i))
	}
}

// reset empties the head for the rows after a Seal, with room for as many
// entries as this one held — the process's own measure of a seal interval.
func (h *head) reset() {
	*h = head{entries: make([]entry, 0, len(h.entries))}
}

// view captures the head for a snapshot.
func (h *head) view() *headView {
	v := &headView{chunks: h.chunks, entries: h.entries, jobRows: slices.Clone(h.jobRows)}
	for k := range h.vals {
		v.vals[k] = h.vals[k].strs
	}
	return v
}

// headView is a head as a snapshot captured it: prefixes of storage the head
// never rewrites, safe to read without locks.
type headView struct {
	chunks  [][]byte
	entries []entry
	vals    [wire.StringFields][]string
	jobRows [][]uint32

	jobsOnce sync.Once
	byJob    map[string]uint32 // job → JOBID ordinal, built on first lookup
}

// scannedInto points *row at entry i's datagram in its chunk, with the
// Fields its entry holds, and returns its sequence number. Nothing is
// scanned: the head keeps canonical bytes only (DESIGN.md §3), so where each
// value lies follows from the lengths of its interned strings.
func (v *headView) scannedInto(i uint32, row *wire.Scanned) uint64 {
	e := &v.entries[i]
	var lens [wire.StringFields]int
	for k := range lens {
		lens[k] = len(v.vals[k][e.vals[k]])
	}
	row.Datagram = v.chunks[e.chunk][e.payload:e.end:e.end]
	row.Fields = wire.Fields{
		PID: e.pid, Time: e.time, Seq: e.cseq, Total: e.total,
		Values:  wire.CanonicalValues(&lens, e.pid, e.time),
		Content: int(e.content - e.payload), Canonical: true,
	}
	return e.seq
}

// job returns the entry indexes of one job's rows, seq-ascending.
func (v *headView) job(job string) []uint32 {
	v.jobsOnce.Do(func() {
		v.byJob = make(map[string]uint32, len(v.jobRows))
		for o, rows := range v.jobRows {
			if len(rows) > 0 {
				v.byJob[v.vals[wire.FieldJobID][o]] = uint32(o)
			}
		}
	})
	o, ok := v.byJob[job]
	if !ok {
		return nil
	}
	return v.jobRows[o]
}

// eachJob visits every job with rows in the head, in first-appearance order,
// with its entry indexes.
func (v *headView) eachJob(f func(job string, rows []uint32)) {
	for o, rows := range v.jobRows {
		if len(rows) > 0 {
			f(v.vals[wire.FieldJobID][o], rows)
		}
	}
}

// writeRun seals the head into a run file at path: jobs in name order, each
// job's rows in its entry list's order — seq-ascending as the list always
// is — and each row's payload copied as it lies in its chunk. Called with
// the shard frozen.
func (h *head) writeRun(path string) (int64, error) {
	if len(h.entries) == 0 {
		return 0, errors.New("sirendb: sealing an empty head")
	}
	jobs := h.vals[wire.FieldJobID].strs
	order := make([]uint32, 0, len(jobs))
	for o, rows := range h.jobRows {
		if len(rows) > 0 {
			order = append(order, uint32(o))
		}
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(jobs[a], jobs[b]) })
	w, err := runfmt.Create(path)
	if err != nil {
		return 0, err
	}
	for _, job := range order {
		for _, i := range h.jobRows[job] {
			e := &h.entries[i]
			if err := w.Add(jobs[job], e.seq, h.chunks[e.chunk][e.payload:e.end]); err != nil {
				w.Abort()
				return 0, fmt.Errorf("sirendb: %w", err)
			}
		}
	}
	return w.Close()
}
