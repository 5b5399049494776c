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
// snapshot copies each shard's row-slice header, its by-job index map (the
// map itself, not the rows or the index slices — those are shared), and its
// sealed-run slice header. Everything read afterwards runs without touching
// a store lock. That works because the store is append-only after open: a
// shard's row slice and its index lists only ever grow, so the first
// len(rows) entries captured here are never mutated again — concurrent
// inserts land beyond the snapshot's length and never surface through it.
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

// shardView is one shard's captured state: immutable prefixes of shared
// storage plus the then-current sealed-run set, safe to read without locks.
type shardView struct {
	rows       []row
	byJob      map[string][]int
	runs       []sealedRun
	sealedRows int
}

// Snapshot captures the current store contents. The lock is held only for
// the per-shard header and index-map copies — O(jobs), never O(rows).
func (db *DB) Snapshot() *Snapshot {
	sn := &Snapshot{shards: make([]shardView, len(db.shards)), db: db}
	unlock := db.rlockAll()
	sn.lastSeq = db.seq.Load()
	for i, s := range db.shards {
		byJob := make(map[string][]int, len(s.byJob))
		for k, v := range s.byJob {
			byJob[k] = v // slice header: the first len(v) entries never change
		}
		sn.shards[i] = shardView{rows: s.rows, byJob: byJob, runs: s.runs, sealedRows: s.sealedRows}
		sn.count += len(s.rows) + s.sealedRows
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
// cursor, or an in-memory row slice, optionally index-selected. The merge
// reads each source's next sequence number (peek) and moves only the row it
// takes: a head row is handed out in place, a sealed row is decoded straight
// into the merge's one Message slot.
type src struct {
	run   *runfmt.Cursor // non-nil: a sealed run's stream; nil once drained
	onErr func(error)    // where a run stream's read failure goes
	rows  []row
	idxs  []int // non-nil: select rows[idxs[pos]] instead of rows[pos]
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
		return s.rows[s.idxs[s.pos]].Seq, true
	}
	if s.pos >= len(s.rows) {
		return 0, false
	}
	return s.rows[s.pos].Seq, true
}

// take consumes the row the last successful peek reported: a head row in
// place, a sealed row decoded into *slot. A sealed row that fails to decode
// is reported like any run-read failure and yields nil.
func (s *src) take(slot *wire.Message) (*wire.Message, uint64) {
	m, seq := slot, uint64(0)
	if s.run != nil {
		var ok bool
		if seq, ok = s.run.NextInto(slot); !ok {
			s.onErr(s.run.Err())
			s.run = nil
			return nil, 0
		}
	} else {
		i := s.pos
		if s.idxs != nil {
			i = s.idxs[i]
		}
		s.pos++
		m, seq = &s.rows[i].Msg, s.rows[i].Seq
	}
	if s.rem > 0 {
		s.rem--
	}
	return m, seq
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
	if len(sv.rows) > 0 {
		srcs = append(srcs, &src{rows: sv.rows, rem: len(sv.rows)})
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
// from the captured index maps, run jobs from each run's embedded job index
// — no row decode. The union runs once per snapshot and is cached.
func (sn *Snapshot) Jobs() []string {
	sn.jobsOnce.Do(func() {
		seen := make(map[string]struct{})
		for i := range sn.shards {
			for k := range sn.shards[i].byJob {
				seen[k] = struct{}{}
			}
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
// shard's by-job index list is sequence-ascending (its last entry is the
// newest head row of the job), and each run's job index carries the job's
// max sequence number.
func (sn *Snapshot) JobsChangedSince(since uint64) []string {
	seen := make(map[string]struct{})
	for i := range sn.shards {
		sv := &sn.shards[i]
		for job, idxs := range sv.byJob {
			if _, ok := seen[job]; ok {
				continue
			}
			if sv.rows[idxs[len(idxs)-1]].Seq > since {
				seen[job] = struct{}{}
			}
		}
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
	first := make(map[string]uint64, len(sv.byJob))
	for k, idxs := range sv.byJob {
		first[k] = sv.rows[idxs[0]].Seq
	}
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
			jobs = make(map[string]struct{}, len(sv.byJob))
		}
		for k := range sv.byJob {
			if jobs == nil {
				out[k]++
			} else {
				jobs[k] = struct{}{}
			}
		}
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

// ShardJobRows streams shard i's rows of one job in insertion order along
// with each row's store-wide sequence number; return false to stop. Zero
// copy for head rows (they alias the stored slice via the index list);
// sealed rows decode lazily from their run's job extents, merged in by
// sequence.
func (sn *Snapshot) ShardJobRows(shard int, job string, f func(m wire.Message, seq uint64) bool) {
	sv := &sn.shards[shard]
	idxs := sv.byJob[job]
	if len(sv.runs) == 0 { // head-only fast path: no merge state needed
		for _, idx := range idxs {
			r := &sv.rows[idx]
			if !f(r.Msg, r.Seq) {
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
		srcs = append(srcs, &src{rows: sv.rows, idxs: idxs, rem: len(idxs)})
	}
	mergeSrcs(srcs, f)
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
		if idxs := sv.byJob[job]; len(idxs) > 0 {
			srcs = append(srcs, &src{rows: sv.rows, idxs: idxs, rem: len(idxs)})
		}
	}
	mergeSrcs(srcs, func(m wire.Message, _ uint64) bool { return f(m) })
}
