package sirendb

import (
	"sort"
	"sync"

	"siren/internal/sirendb/runfmt"
	"siren/internal/wire"
)

// Snapshot is an immutable point-in-time view of one store, or of the N
// member stores of a multi-receiver deployment (MergeSnapshots,
// DBSet.Snapshot): every accessor below serves both.
//
// Capture cost is deliberately tiny: under a brief all-shard read lock the
// snapshot copies each shard's head slice headers — its chunks, index
// entries and string tables — and the outer slice of its per-job row lists
// (the lists themselves are shared), and its sealed-run slice header.
// Everything read afterwards runs without touching a store lock. That works
// because the head is append-only between seals: chunk bytes below the fill
// mark, the entries, the string tables and the job lists only ever grow, so
// the prefixes captured here are never mutated again — concurrent inserts
// land beyond the snapshot's lengths and never surface through it.
// The sealed-run slices are copy-on-write (Seal and retention swap in fresh
// slices), so a captured header keeps naming exactly the runs that existed
// at capture time; a run file unlinked by retention stays readable through
// its still-open mapping. Writers therefore keep inserting — and sealing —
// at full speed while a scan or a whole-campaign consolidation walks the
// snapshot.
//
// The capture is also a consistent cut: the all-shard lock means no insert
// or seal is mid-flight, so if a row with sequence number S is in the
// snapshot, every row with a smaller sequence number is too — whether it
// lives in the WAL head or in a sealed run.
//
// Sealed-run rows decode lazily from the mapped files. A block whose
// checksum fails mid-read (bit rot after Open's index validation) ends that
// run's stream early rather than yielding wrong rows; the first such error
// is sticky on the snapshot (Err) and counted in the store's stats.
//
// The streaming consolidation (postprocess.ConsolidateStream) reads the
// snapshot one whole job at a time and depends on this contract:
//   - JobRows yields every row of one job exactly once, merged
//     across shards, tiers and members in ascending seq order, so each
//     host's stream comes out in insertion order (chunk reassembly order);
//     seqs are comparable across shards and members;
//   - Jobs lists every job that has rows;
//   - LastSeq is a refresh watermark: a consumer holding consolidated state
//     as of watermark W re-consolidates exactly JobsChangedSince(W) against
//     a later snapshot — the append-only store guarantees every other job's
//     rows are byte-identical to the previous capture.
//
// A row stays on the shard that wrote it: InsertBatch and the receiver route
// by wire.PartitionHash(JobID, Host), replay puts segment k back on shard
// k % shards and a run file on the same rule. That placement is locality
// only: nothing above depends on it, so misrouted InsertShard rows, a store
// reopened at another shard count and multi-host jobs are all read the same
// way. Nor is a row held by two members removed: a failover
// leaves a recovered member's partial copy of rows another member holds in
// full (DESIGN.md §11), and both copies are yielded. The consolidation
// kernel makes them harmless, since it keeps one copy of a repeated chunk.
type Snapshot struct {
	shards  []shardView
	count   int
	lastSeq uint64 // highest sequence number the snapshot contains

	jobsOnce sync.Once
	jobs     []string
}

// shardView is one shard's captured state: immutable prefixes of its head
// plus the then-current sealed-run set, safe to read without locks.
type shardView struct {
	head *headView
	runs []sealedRun
	off  uint64   // added to every seq: the preceding members' LastSeq sum
	errs *runErrs // where the member's run-read failures go
}

// runErrs keeps the first lazy run-read failure of one member's snapshot and
// forwards each to the store's telemetry counter.
type runErrs struct {
	db    *DB
	mu    sync.Mutex
	first error
}

func (e *runErrs) note(err error) {
	e.mu.Lock()
	if e.first == nil {
		e.first = err
	}
	e.mu.Unlock()
	e.db.mx.runReadErrs.Inc()
}

func (e *runErrs) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.first
}

// Snapshot captures the current store contents. The lock is held only for
// the per-shard header copies and the job lists' outer slices — O(jobs),
// never O(rows).
func (db *DB) Snapshot() *Snapshot {
	sn := &Snapshot{shards: make([]shardView, len(db.shards))}
	errs := &runErrs{db: db}
	unlock := db.rlockAll()
	sn.lastSeq = db.seq.Load()
	for i, s := range db.shards {
		sn.shards[i] = shardView{head: s.head.view(), runs: s.runs, errs: errs}
		sn.count += len(s.head.entries) + s.sealedRows
	}
	unlock()
	return sn
}

// MergeSnapshots presents member snapshots, each captured by DB.Snapshot, as
// one (see set.go): the shard axis is the concatenation of every member's
// shards, member 0's first, and member m's rows carry its own sequence
// numbers plus the sum of the preceding members' LastSeq values. Useful when
// the members' capture points are controlled individually; DBSet.Snapshot
// is the common path.
func MergeSnapshots(members []*Snapshot) *Snapshot {
	out := &Snapshot{}
	for _, sn := range members {
		for _, sv := range sn.shards {
			sv.off += out.lastSeq
			out.shards = append(out.shards, sv)
		}
		out.lastSeq += sn.lastSeq
		out.count += sn.count
	}
	return out
}

// Err reports the first sealed-run read failure any cursor or stream of
// this snapshot, or of a snapshot sharing one of its members, encountered —
// the signal that some run rows were withheld (never corrupted rows, never
// silently wrong ones). Nil means every stream so far was complete.
func (sn *Snapshot) Err() error {
	for i := range sn.shards {
		if err := sn.shards[i].errs.err(); err != nil {
			return err
		}
	}
	return nil
}

// Shards reports the number of shards behind the snapshot: in a merged
// snapshot, the sum of every member's shards.
func (sn *Snapshot) Shards() int { return len(sn.shards) }

// Count reports the number of rows in the snapshot, sealed runs included. In
// a merged snapshot a row that two members hold counts twice.
func (sn *Snapshot) Count() int { return sn.count }

// LastSeq reports the highest sequence number the snapshot contains; every
// row it yields has seq <= LastSeq. Successive snapshots of a growing store
// have non-decreasing LastSeq, which makes the value a refresh watermark.
func (sn *Snapshot) LastSeq() uint64 { return sn.lastSeq }

// src is one sequence-ascending row stream inside a merge: a sealed-run
// cursor, or a head's entries, optionally index-selected. The merge reads
// each source's next sequence number (peek) and takes only the row it picks,
// as a view: a head row from its index entry, a sealed row scanned in place.
type src struct {
	run  *runfmt.Cursor // non-nil: a sealed run's stream; nil once drained
	head *headView
	idxs []uint32 // non-nil: select entries[idxs[pos]] instead of entries[pos]
	pos  int
	rem  int // rows not yet yielded (run streams: advertised count)

	off  uint64   // the shard view's seq rebase
	errs *runErrs // where a run stream's read failure goes
}

func (s *src) peek() (uint64, bool) {
	if s.run != nil {
		seq, ok := s.run.PeekSeq()
		if !ok {
			// Drained or failed: report a failure once, then the source is
			// an empty row slice.
			if err := s.run.Err(); err != nil {
				s.errs.note(err)
			}
			s.run = nil
		}
		return s.off + seq, ok
	}
	if s.idxs != nil {
		if s.pos >= len(s.idxs) {
			return 0, false
		}
		return s.off + s.head.entries[s.idxs[s.pos]].seq, true
	}
	if s.head == nil || s.pos >= len(s.head.entries) {
		return 0, false
	}
	return s.off + s.head.entries[s.pos].seq, true
}

// takeScanned consumes the row the last successful peek reported into *slot
// and returns it with its rebased sequence number (runfmt.Cursor.NextScanned,
// headView.scannedInto). A sealed row that fails to scan is reported like any
// run-read failure and yields nil.
func (s *src) takeScanned(slot *wire.Scanned) (*wire.Scanned, uint64) {
	if s.run != nil {
		seq, ok := s.run.NextScanned(slot)
		if !ok {
			s.errs.note(s.run.Err())
			s.run = nil
			return nil, 0
		}
		s.rem = max(s.rem-1, 0)
		return slot, s.off + seq
	}
	i := uint32(s.pos)
	if s.idxs != nil {
		i = s.idxs[i]
	}
	s.pos++
	s.rem = max(s.rem-1, 0)
	return slot, s.off + s.head.scannedInto(i, slot)
}

// shardSources appends shard i's sources to srcs: its sealed runs (oldest
// generation first) plus its head rows.
func (sn *Snapshot) shardSources(srcs []*src, i int) []*src {
	sv := &sn.shards[i]
	for _, sr := range sv.runs {
		srcs = append(srcs, &src{run: sr.run.Cursor(), rem: sr.run.Rows(), off: sv.off, errs: sv.errs})
	}
	if n := len(sv.head.entries); n > 0 {
		srcs = append(srcs, &src{head: sv.head, rem: n, off: sv.off, errs: sv.errs})
	}
	return srcs
}

// jobSources is shardSources for one job's rows.
func (sn *Snapshot) jobSources(srcs []*src, i int, job string) []*src {
	sv := &sn.shards[i]
	for _, sr := range sv.runs {
		if sr.run.HasJob(job) {
			rows, _, _, _ := sr.run.JobStats(job)
			srcs = append(srcs, &src{run: sr.run.JobCursor(job), rem: rows, off: sv.off, errs: sv.errs})
		}
	}
	if idxs := sv.head.job(job); len(idxs) > 0 {
		srcs = append(srcs, &src{head: sv.head, idxs: idxs, rem: len(idxs), off: sv.off, errs: sv.errs})
	}
	return srcs
}

// mergeScanned streams the union of the sources in ascending sequence order,
// handing each row straight from its source to f; return false to stop.
func mergeScanned(srcs []*src, f func(row *wire.Scanned, seq uint64) bool) {
	c := Cursor{srcs: srcs}
	for row, seq, ok := c.nextScanned(); ok && f(row, seq); row, seq, ok = c.nextScanned() {
	}
}

// Cursor iterates one shard's snapshot rows in sequence order, lock-free —
// a sequence-merge of the shard's sealed runs and its WAL head.
type Cursor struct {
	srcs []*src
	slot wire.Scanned
	dec  wire.Decoder
}

// ShardCursor returns a cursor over shard i's rows, sealed runs included.
// Each shard's merged stream is sequence-sorted, so a caller merging
// several cursors by Next's seq value reconstructs global insertion order
// (Iter does exactly that).
func (sn *Snapshot) ShardCursor(i int) *Cursor {
	return &Cursor{srcs: sn.shardSources(nil, i)}
}

// Len reports how many rows remain ahead of the cursor. Run streams count
// their advertised (footer) rows, so a mid-read corruption can end a stream
// with Len still positive — the snapshot's Err reports why.
func (c *Cursor) Len() int {
	n := 0
	for _, s := range c.srcs {
		n += s.rem
	}
	return n
}

// Next returns the next message and its sequence number. The Message is
// built by the cursor's one wire.Decoder and shares nothing with the store.
func (c *Cursor) Next() (wire.Message, uint64, bool) {
	row, seq, ok := c.nextScanned()
	if !ok {
		return wire.Message{}, 0, false
	}
	var m wire.Message
	c.dec.Fill(row, &m)
	return m, seq, true
}

// nextScanned returns a view of the next row, valid until the next call,
// and its sequence number — the one merge step behind every stream of the
// snapshot. A sealed row that fails to scan is skipped (its run's stream
// ends there, and Err reports why).
func (c *Cursor) nextScanned() (*wire.Scanned, uint64, bool) {
	for s := c.pick(); s != nil; s = c.pick() {
		if row, seq := s.takeScanned(&c.slot); row != nil {
			return row, seq, true
		}
	}
	return nil, 0, false
}

// pick returns the source whose next row has the lowest sequence number, or
// nil once every source is drained — the one best-pick loop behind every
// merge. A linear scan per step is fine at the store's source counts
// (members × shards × runs-per-shard, all small); a peek reads a sequence
// number, never a row, so it is one comparison per source per step.
func (c *Cursor) pick() *src {
	var best *src
	var bestSeq uint64
	for _, s := range c.srcs {
		if seq, ok := s.peek(); ok && (best == nil || seq < bestSeq) {
			best, bestSeq = s, seq
		}
	}
	return best
}

// Iter streams every snapshot message exactly once, a sequence-merge across
// all shards' runs and heads, so in global insertion order; return false to
// stop. In a merged snapshot the members follow one another. No store lock
// is held: the callback may block, take arbitrarily long, or insert into the
// store without stalling writers or deadlocking.
func (sn *Snapshot) Iter(f func(m wire.Message) bool) {
	var srcs []*src
	for i := range sn.shards {
		srcs = sn.shardSources(srcs, i)
	}
	c := Cursor{srcs: srcs}
	for m, _, ok := c.Next(); ok && f(m); m, _, ok = c.Next() {
	}
}

// Jobs returns the distinct job IDs in the snapshot, sorted. Head jobs come
// from the captured job lists, run jobs from each run's embedded job index
// — no row decode. The union runs once per snapshot and is cached.
func (sn *Snapshot) Jobs() []string {
	sn.jobsOnce.Do(func() {
		seen := make(map[string]struct{})
		for i := range sn.shards {
			sn.shards[i].head.eachJob(func(job string, _ []uint32) { seen[job] = struct{}{} })
			for _, sr := range sn.shards[i].runs {
				for _, k := range sr.run.Jobs() {
					seen[k] = struct{}{}
				}
			}
		}
		sn.jobs = sortedKeys(seen)
	})
	return sn.jobs
}

// sortedKeys returns a set's members, sorted.
func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// JobsChangedSince returns the job IDs with at least one row whose sequence
// number is strictly greater than since, sorted — the delta an incremental
// catalog refresh re-consolidates. since=0 returns every job (sequence
// numbers start at 1). The check is O(shards × jobs), never O(rows): each
// shard's job list is sequence-ascending (its last entry is the newest head
// row of the job), and each run's job index carries the job's max sequence
// number.
//
// Watermarks of merged snapshots are only comparable with the same member
// set in the same order and non-shrinking members (both deployment shapes
// guarantee that: a live store only appends, and an OpenSet holds every
// member's exclusive lock), since the rebase offsets are cumulative member
// LastSeqs. A job whose only new rows repeat rows another member already
// holds is reported changed, and a refresh re-consolidates it to the same
// records.
func (sn *Snapshot) JobsChangedSince(since uint64) []string {
	seen := make(map[string]struct{})
	for i := range sn.shards {
		sv := &sn.shards[i]
		sv.head.eachJob(func(job string, rows []uint32) {
			if sv.off+sv.head.entries[rows[len(rows)-1]].seq > since {
				seen[job] = struct{}{}
			}
		})
		for _, sr := range sv.runs {
			sr.run.EachJob(func(job string, _ int, _, maxSeq uint64) bool {
				if sv.off+maxSeq > since {
					seen[job] = struct{}{}
				}
				return true
			})
		}
	}
	return sortedKeys(seen)
}

// JobLen bounds how many rows JobRows(job) yields, from the heads' job lists
// and the runs' job indexes — O(shards × runs), no row read. A consumer sizes
// its buffer with it before the stream fills it. (A run block found corrupt
// mid-read ends its stream early, so it is a bound.)
func (sn *Snapshot) JobLen(job string) int {
	n := 0
	for i := range sn.shards {
		sv := &sn.shards[i]
		n += len(sv.head.job(job))
		for _, sr := range sv.runs {
			rows, _, _, _ := sr.run.JobStats(job)
			n += rows
		}
	}
	return n
}

// JobRows streams every row of one job in global insertion order, merged
// across shards, tiers and members, along with each row's sequence number;
// return false to stop. Each row is handed out as a view of the bytes the
// store holds — a head row as its datagram in the head chunk with the Fields
// its index entry holds, a sealed row scanned in place in its verified run
// block — so nothing is decoded, copied or re-sorted: each head index list
// is already sequence-ascending and each run reads its job's one extent in
// sequence order. A view stays valid while the snapshot is reachable and
// must not be kept past that: run mappings are unmapped once the snapshot is
// garbage, so whatever a caller keeps of a row, it copies.
func (sn *Snapshot) JobRows(job string, f func(row *wire.Scanned, seq uint64) bool) {
	if sv, idxs := sn.soleHead(job); sv != nil {
		// One head holds the whole job: no merge state needed.
		var row wire.Scanned
		for _, idx := range idxs {
			if seq := sv.head.scannedInto(idx, &row); !f(&row, sv.off+seq) {
				return
			}
		}
		return
	}
	var srcs []*src
	for i := range sn.shards {
		srcs = sn.jobSources(srcs, i, job)
	}
	mergeScanned(srcs, f)
}

// soleHead returns the shard view whose head holds every row of job, with
// those rows' entry indexes, when no other head and no sealed run holds any;
// nil otherwise.
func (sn *Snapshot) soleHead(job string) (*shardView, []uint32) {
	var sole *shardView
	var idxs []uint32
	for i := range sn.shards {
		sv := &sn.shards[i]
		for _, sr := range sv.runs {
			if sr.run.HasJob(job) {
				return nil, nil
			}
		}
		if rows := sv.head.job(job); len(rows) > 0 {
			if sole != nil {
				return nil, nil
			}
			sole, idxs = sv, rows
		}
	}
	return sole, idxs
}
