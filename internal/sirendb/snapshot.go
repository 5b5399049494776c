package sirendb

import (
	"sort"
	"sync"

	"siren/internal/sirendb/runfmt"
	"siren/internal/wire"
)

// Snapshot is an immutable point-in-time view of the store.
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
type Snapshot struct {
	shards  []shardView
	count   int
	lastSeq uint64 // highest sequence number assigned at capture time
	db      *DB    // owner of the run-read error counter

	jobsOnce sync.Once
	jobs     []string

	errMu    sync.Mutex
	firstErr error
}

// shardView is one shard's captured state: immutable prefixes of its head
// plus the then-current sealed-run set, safe to read without locks.
type shardView struct {
	head       *headView
	runs       []sealedRun
	sealedRows int
}

// Snapshot captures the current store contents. The lock is held only for
// the per-shard header copies and the job lists' outer slices — O(jobs),
// never O(rows).
func (db *DB) Snapshot() *Snapshot {
	sn := &Snapshot{shards: make([]shardView, len(db.shards)), db: db}
	unlock := db.rlockAll()
	sn.lastSeq = db.seq.Load()
	for i, s := range db.shards {
		sn.shards[i] = shardView{head: s.head.view(), runs: s.runs, sealedRows: s.sealedRows}
		sn.count += len(s.head.entries) + s.sealedRows
	}
	unlock()
	return sn
}

// noteErr records the first lazy run-read failure and forwards it to the
// store's telemetry counter.
func (sn *Snapshot) noteErr(err error) {
	sn.errMu.Lock()
	if sn.firstErr == nil {
		sn.firstErr = err
	}
	sn.errMu.Unlock()
	sn.db.mx.runReadErrs.Inc()
}

// Err reports the first sealed-run read failure any cursor or stream of
// this snapshot encountered — the signal that some run rows were withheld
// (never corrupted rows, never silently wrong ones). Nil means every stream
// so far was complete.
func (sn *Snapshot) Err() error {
	sn.errMu.Lock()
	defer sn.errMu.Unlock()
	return sn.firstErr
}

// Shards reports the number of store shards behind the snapshot.
func (sn *Snapshot) Shards() int { return len(sn.shards) }

// Count reports the number of messages in the snapshot, sealed runs
// included.
func (sn *Snapshot) Count() int { return sn.count }

// LastSeq reports the highest store-wide sequence number the snapshot
// contains; every row it yields has Seq <= LastSeq.
func (sn *Snapshot) LastSeq() uint64 { return sn.lastSeq }

// src is one sequence-ascending row stream inside a merge: a sealed-run
// cursor, or a head's entries, optionally index-selected. The merge reads
// each source's next sequence number (peek) and builds only the row it
// takes, straight into the merge's one Message slot: a head row from its
// index entry, a sealed row by decoding it.
type src struct {
	run   *runfmt.Cursor // non-nil: a sealed run's stream; nil once drained
	onErr func(error)    // where a run stream's read failure goes
	head  *headView
	idxs  []uint32 // non-nil: select entries[idxs[pos]] instead of entries[pos]
	pos   int
	rem   int // rows not yet yielded (run streams: advertised count)
}

func (s *src) peek() (uint64, bool) {
	if s.run != nil {
		seq, ok := s.run.PeekSeq()
		if !ok {
			// Drained or failed: report a failure once, then the source is
			// an empty row slice.
			if err := s.run.Err(); err != nil {
				s.onErr(err)
			}
			s.run = nil
		}
		return seq, ok
	}
	if s.idxs != nil {
		if s.pos >= len(s.idxs) {
			return 0, false
		}
		return s.head.entries[s.idxs[s.pos]].seq, true
	}
	if s.head == nil || s.pos >= len(s.head.entries) {
		return 0, false
	}
	return s.head.entries[s.pos].seq, true
}

// take consumes the row the last successful peek reported into *slot. A
// sealed row that fails to decode is reported like any run-read failure and
// yields nil.
func (s *src) take(slot *wire.Message) (*wire.Message, uint64) {
	if s.run != nil {
		seq, ok := s.run.NextInto(slot)
		return ran(s, slot, seq, ok)
	}
	return slot, s.head.rowInto(s.next(), slot)
}

// takeScanned is take for a view of the row (runfmt.Cursor.NextScanned,
// headView.scannedInto).
func (s *src) takeScanned(slot *wire.Scanned) (*wire.Scanned, uint64) {
	if s.run != nil {
		seq, ok := s.run.NextScanned(slot)
		return ran(s, slot, seq, ok)
	}
	return slot, s.head.scannedInto(s.next(), slot)
}

// ran accounts for a row read from the run stream, or reports the stream's
// failure and yields nil.
func ran[T any](s *src, slot *T, seq uint64, ok bool) (*T, uint64) {
	if !ok {
		s.onErr(s.run.Err())
		s.run = nil
		return nil, 0
	}
	s.rem = max(s.rem-1, 0)
	return slot, seq
}

// next steps a head source to its next entry and returns the entry's index.
func (s *src) next() uint32 {
	i := uint32(s.pos)
	if s.idxs != nil {
		i = s.idxs[i]
	}
	s.pos++
	s.rem = max(s.rem-1, 0)
	return i
}

// mergeSrcs streams the union of the sources in ascending sequence order —
// a Cursor driven to the end, handing each row straight from its source to
// f; return false to stop.
func mergeSrcs(srcs []*src, f func(m wire.Message, seq uint64) bool) {
	c := Cursor{srcs: srcs}
	var slot wire.Message
	for s := c.pick(); s != nil; s = c.pick() {
		if m, seq := s.take(&slot); m != nil && !f(*m, seq) {
			return
		}
	}
}

// mergeScanned is mergeSrcs handing out views of the rows.
func mergeScanned(srcs []*src, f func(row *wire.Scanned, seq uint64) bool) {
	c := Cursor{srcs: srcs}
	var slot wire.Scanned
	for s := c.pick(); s != nil; s = c.pick() {
		if row, seq := s.takeScanned(&slot); row != nil && !f(row, seq) {
			return
		}
	}
}

// runSrc builds a source over one sealed run's full row stream.
func runSrc(sr sealedRun, onErr func(error)) *src {
	return &src{run: sr.run.Cursor(), onErr: onErr, rem: sr.run.Rows()}
}

// runJobSrc builds a source over one job's rows in a sealed run.
func runJobSrc(sr sealedRun, job string, onErr func(error)) *src {
	rows, _, _, _ := sr.run.JobStats(job)
	return &src{run: sr.run.JobCursor(job), onErr: onErr, rem: rows}
}

// shardSources builds shard i's sources: its sealed runs (oldest generation
// first) plus its head rows.
func (sn *Snapshot) shardSources(i int) []*src {
	sv := &sn.shards[i]
	srcs := make([]*src, 0, len(sv.runs)+1)
	for _, sr := range sv.runs {
		srcs = append(srcs, runSrc(sr, sn.noteErr))
	}
	if n := len(sv.head.entries); n > 0 {
		srcs = append(srcs, &src{head: sv.head, rem: n})
	}
	return srcs
}

// Cursor iterates one shard's snapshot rows in sequence order, lock-free —
// a sequence-merge of the shard's sealed runs and its WAL head.
type Cursor struct {
	srcs []*src
}

// ShardCursor returns a cursor over shard i's rows, sealed runs included.
// Each shard's merged stream is sequence-sorted, so a caller merging
// several cursors by Next's seq value reconstructs global insertion order
// (Iter does exactly that).
func (sn *Snapshot) ShardCursor(i int) *Cursor {
	return &Cursor{srcs: sn.shardSources(i)}
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

// Next returns the next message and its store-wide sequence number.
func (c *Cursor) Next() (wire.Message, uint64, bool) {
	var slot wire.Message
	for s := c.pick(); s != nil; s = c.pick() {
		if m, seq := s.take(&slot); m != nil {
			return *m, seq, true
		}
	}
	return wire.Message{}, 0, false
}

// pick returns the source whose next row has the lowest sequence number, or
// nil once every source is drained — the one best-pick loop behind every
// merge. A linear scan per step is fine at the store's source counts
// (shards × runs-per-shard, both small); a peek reads a sequence number, never
// a row, so it is one comparison per source per step.
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
// all shards' runs and heads; return false to stop. Head rows come out in
// global insertion order, a sealed run's rows in its on-disk (job, host,
// seq) sort — so any one (job, host) stream is always in insertion order,
// while rows of different hosts may be grouped once sealed. No store lock
// is held: the callback may block, take arbitrarily long, or insert into
// the store without stalling writers or deadlocking.
func (sn *Snapshot) Iter(f func(m wire.Message) bool) {
	var srcs []*src
	for i := range sn.shards {
		srcs = append(srcs, sn.shardSources(i)...)
	}
	mergeSrcs(srcs, func(m wire.Message, _ uint64) bool { return f(m) })
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
		out := make([]string, 0, len(seen))
		for k := range seen {
			out = append(out, k)
		}
		sort.Strings(out)
		sn.jobs = out
	})
	return sn.jobs
}

// JobsChangedSince returns the job IDs with at least one row whose sequence
// number is strictly greater than since, sorted — the delta an incremental
// catalog refresh re-consolidates. since=0 returns every job (sequence
// numbers start at 1). The check is O(shards × jobs), never O(rows): each
// shard's job list is sequence-ascending (its last entry is the newest head
// row of the job), and each run's job index carries the job's max sequence
// number.
func (sn *Snapshot) JobsChangedSince(since uint64) []string {
	seen := make(map[string]struct{})
	for i := range sn.shards {
		sv := &sn.shards[i]
		sv.head.eachJob(func(job string, rows []uint32) {
			if sv.head.entries[rows[len(rows)-1]].seq > since {
				seen[job] = struct{}{}
			}
		})
		for _, sr := range sv.runs {
			sr.run.EachJob(func(job string, _ int, _, maxSeq uint64) bool {
				if maxSeq > since {
					seen[job] = struct{}{}
				}
				return true
			})
		}
	}
	out := make([]string, 0, len(seen))
	for job := range seen {
		out = append(out, job)
	}
	sort.Strings(out)
	return out
}

// ShardJobs returns shard i's distinct job IDs in first-appearance
// (insertion) order — the iteration order of the shard-parallel streaming
// consolidation workers, chosen so each worker visits its jobs roughly in
// the order their first rows arrived. A job's first appearance is the
// minimum of its first head row's sequence and its min sequence in any of
// the shard's runs.
func (sn *Snapshot) ShardJobs(i int) []string {
	sv := &sn.shards[i]
	first := make(map[string]uint64, len(sv.head.jobRows))
	sv.head.eachJob(func(job string, rows []uint32) { first[job] = sv.head.entries[rows[0]].seq })
	for _, sr := range sv.runs {
		sr.run.EachJob(func(job string, _ int, minSeq, _ uint64) bool {
			if cur, ok := first[job]; !ok || minSeq < cur {
				first[job] = minSeq
			}
			return true
		})
	}
	out := make([]string, 0, len(first))
	for k := range first {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return first[out[a]] < first[out[b]] })
	return out
}

// JobShardCounts maps every job ID in the snapshot to the number of shards
// holding rows of that job — the fan-in count a streaming per-job reducer
// waits for before declaring a job complete. Jobs running on several hosts
// can span shards because partitioning hashes (JobID, Host).
func (sn *Snapshot) JobShardCounts() map[string]int {
	out := make(map[string]int)
	for i := range sn.shards {
		sv := &sn.shards[i]
		var jobs map[string]struct{}
		if len(sv.runs) > 0 {
			jobs = make(map[string]struct{}, len(sv.head.jobRows))
		}
		sv.head.eachJob(func(job string, _ []uint32) {
			if jobs == nil {
				out[job]++
			} else {
				jobs[job] = struct{}{}
			}
		})
		for _, sr := range sv.runs {
			for _, k := range sr.run.Jobs() {
				jobs[k] = struct{}{}
			}
		}
		for k := range jobs {
			out[k]++
		}
	}
	return out
}

// ShardJobLen reports how many rows ShardJobRows(shard, job) yields, from
// the head's job list and the runs' job indexes — O(runs), no row read. A
// consumer sizes its buffer with it before the stream fills it. (A run block
// found corrupt mid-read ends its stream early, so it is a bound.)
func (sn *Snapshot) ShardJobLen(shard int, job string) int {
	sv := &sn.shards[shard]
	n := len(sv.head.job(job))
	for _, sr := range sv.runs {
		rows, _, _, _ := sr.run.JobStats(job)
		n += rows
	}
	return n
}

// ShardJobRows streams shard i's rows of one job in insertion order along
// with each row's store-wide sequence number; return false to stop. Each row
// is handed out as a view of the bytes the store holds — a head row as its
// datagram in the head chunk with the Fields its index entry holds, a sealed
// row scanned in place in its verified run block — so nothing is decoded or
// copied. A view stays valid while the snapshot is reachable and must not be
// kept past that: run mappings are unmapped once the snapshot is garbage, so
// whatever a caller keeps of a row, it copies.
func (sn *Snapshot) ShardJobRows(shard int, job string, f func(row *wire.Scanned, seq uint64) bool) {
	sv := &sn.shards[shard]
	idxs := sv.head.job(job)
	if len(sv.runs) == 0 { // head-only fast path: no merge state needed
		var row wire.Scanned
		for _, idx := range idxs {
			if seq := sv.head.scannedInto(idx, &row); !f(&row, seq) {
				return
			}
		}
		return
	}
	var srcs []*src
	for _, sr := range sv.runs {
		if sr.run.HasJob(job) {
			srcs = append(srcs, runJobSrc(sr, job, sn.noteErr))
		}
	}
	if len(idxs) > 0 {
		srcs = append(srcs, &src{head: sv.head, idxs: idxs, rem: len(idxs)})
	}
	mergeScanned(srcs, f)
}

// JobRows streams every row of one job in global insertion order, merged
// across shards and tiers, without copying head rows or re-sorting: each
// head index list is already sequence-ascending and each run decodes its
// job extents in sequence order.
func (sn *Snapshot) JobRows(job string, f func(m wire.Message) bool) {
	var srcs []*src
	for i := range sn.shards {
		sv := &sn.shards[i]
		for _, sr := range sv.runs {
			if sr.run.HasJob(job) {
				srcs = append(srcs, runJobSrc(sr, job, sn.noteErr))
			}
		}
		if idxs := sv.head.job(job); len(idxs) > 0 {
			srcs = append(srcs, &src{head: sv.head, idxs: idxs, rem: len(idxs)})
		}
	}
	mergeSrcs(srcs, func(m wire.Message, _ uint64) bool { return f(m) })
}
