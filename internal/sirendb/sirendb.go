// Package sirendb is the embedded message store behind the SIREN receiver —
// the stdlib-only substitute for the SQLite database the paper uses.
//
// The paper's schema is a single table keyed by the UDP header columns
// (JOBID, STEPID, PID, HASH, HOST, TIME, LAYER, TYPE) with the message
// CONTENT as payload. The store is sharded: rows, the by-job index, and the
// append-only write-ahead log are split into S shards partitioned by wire.PartitionHash(JOBID, HOST) — the same hash the
// receiver's dispatcher uses — so concurrent writer shards insert with zero
// cross-shard lock contention. Each shard persists to its own WAL segment
// file ("path.0" … "path.S-1"); a per-shard group-commit syncer batches
// fdatasync calls under a configurable latency bound, so durability does not
// ride on OS write-back and an fsync never stalls concurrent appends.
//
// Every record carries a store-wide sequence number, so Scan/All/ByJob
// present the merged shards in global insertion order. Replay tolerates a
// torn final record (crash mid-write) and skips corrupt records
// (checksummed), in keeping with SIREN's graceful-failure design. Seal
// (seal.go) is the store's only rewrite transaction: it freezes the WAL head
// into immutable sorted runs and truncates the segments.
package sirendb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/obs"
	"siren/internal/wire"
)

// ErrClosed is returned by mutating operations on a persistent store after
// Close: silently accepting rows that can no longer reach the WAL would turn
// a lifecycle bug into data loss.
var ErrClosed = errors.New("sirendb: store is closed")

// ErrLocked is returned by Open when another process holds the store's
// advisory lock. Two processes appending to the same WAL segments would
// interleave records and corrupt the log.
var ErrLocked = errors.New("sirendb: store is locked by another process")

// DefaultSyncInterval is the group-commit latency bound used when
// Options.SyncInterval is zero: an appended record becomes durable at most
// this long after the write, amortising fdatasync across every batch that
// lands in the window.
const DefaultSyncInterval = 100 * time.Millisecond

// Options configure a store.
type Options struct {
	// Shards is the number of store shards, each owning its rows, indexes,
	// and WAL segment (default min(GOMAXPROCS, 4), matching the receiver's
	// writer-shard default so batches route shard→shard 1:1). Reopening with
	// a different count is safe: replay re-partitions rows by hash and reads
	// every segment on disk regardless of the configured count.
	Shards int
	// SyncInterval bounds how long an appended record may stay unsynced
	// before the group-commit syncer calls fdatasync (0 = DefaultSyncInterval;
	// negative = fdatasync synchronously on every insert batch).
	SyncInterval time.Duration
	// ReadOnly opens the store for serving without write access: a *shared*
	// advisory lock is taken (any number of read-only opens coexist, but a
	// writer's exclusive lock excludes them and vice versa), segments are
	// replayed from read-only handles without header repair or truncation,
	// sealed runs are attached, and no group-commit syncers start. Mutating
	// operations return ErrReadOnly. No on-disk state needs a writable open
	// first: a crash-interrupted Seal rolls forward by filtering, not mutation.
	ReadOnly bool
	// Metrics, when non-nil, registers the store's instruments there: WAL
	// append and group-commit fdatasync latency, commit batch bytes, Seal
	// phase durations, and run-read errors (see internal/obs). Nil leaves
	// every hot path uninstrumented at zero cost.
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards > 4 {
			o.Shards = 4
		}
	}
	if o.Shards > 256 {
		o.Shards = 256
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = DefaultSyncInterval
	}
}

// DB is a thread-safe append-only message store, sharded by (JobID, Host).
type DB struct {
	path      string // "" = purely in-memory
	dir       string
	opts      Options
	shards    []*shard
	seq       atomic.Uint64 // last assigned store-wide sequence number
	corrupt   atomic.Int64  // records skipped during replay
	closed    atomic.Bool
	lockFile  *os.File
	staleSegs []string // segment files with index >= len(shards), folded in by Seal

	// sealMu guards the sealed-tier bookkeeping. sealGen is the highest
	// committed seal generation; sealedSeq is the marker's maxseq — the
	// replay filter's floor for WAL residue a crashed post-commit seal left
	// behind. Both only ever grow. runReadErrs counts lazy run-read failures
	// (block checksum mismatches found after Open) surfaced through Stats.
	sealMu      sync.Mutex
	sealGen     int
	sealedSeq   uint64
	runReadErrs atomic.Int64

	// mx holds the store's obs instruments; the zero value is the
	// uninstrumented no-op state (see storeMetrics).
	mx storeMetrics

	stopSync   chan struct{}
	syncWG     sync.WaitGroup
	syncErrMu  sync.Mutex
	syncErr    error       // first background fdatasync failure
	syncFailed atomic.Bool // fast-path flag for syncErr, checked on every insert

	// testCrashAfterSealCommit simulates a crash right after Seal's commit
	// marker became durable: runs committed, WAL not yet truncated.
	testCrashAfterSealCommit bool
}

// Open opens (or creates) a database backed by WAL segments derived from
// path, with default options. An empty path yields a purely in-memory store.
func Open(path string) (*DB, error) { return OpenOptions(path, Options{}) }

// OpenOptions opens (or creates) a database backed by the WAL segment files
// "path.0" … "path.S-1", taking an exclusive advisory lock on "path.lock"
// (ErrLocked if another process holds it) and replaying every intact record
// found on disk. path itself names no file; a regular file sitting there is
// refused rather than ignored.
func OpenOptions(path string, opts Options) (*DB, error) {
	opts.defaults()
	db := &DB{path: path, opts: opts, stopSync: make(chan struct{})}
	db.mx = newStoreMetrics(opts.Metrics)
	db.shards = make([]*shard, opts.Shards)
	for i := range db.shards {
		db.shards[i] = newShard()
		db.shards[i].fsyncNS = db.mx.fsyncNS
		db.shards[i].commitBytes = db.mx.commitBytes
	}
	if path == "" {
		return db, nil
	}
	db.dir = filepath.Dir(path)
	lock := acquireLock
	if opts.ReadOnly {
		lock = acquireSharedLock
	}
	lf, err := lock(path + ".lock")
	if err != nil {
		return nil, err
	}
	db.lockFile = lf
	if err := db.openSegments(); err != nil {
		for _, s := range db.shards {
			if s.wal != nil {
				_ = s.wal.Close() // cleanup on a path already returning err
			}
		}
		db.closeRunsLocked()
		_ = lf.Close() // ditto; the open error is what matters
		return nil, err
	}
	if opts.SyncInterval > 0 && !opts.ReadOnly {
		for _, s := range db.shards {
			db.syncWG.Add(1)
			go db.syncLoop(s)
		}
	}
	return db, nil
}

// StoreShards reports the number of store shards. Together with InsertShard
// it forms the direct-routing fast path the receiver uses when its writer
// count matches.
func (db *DB) StoreShards() int { return len(db.shards) }

// CorruptRecords reports how many WAL records were skipped during replay.
func (db *DB) CorruptRecords() int { return int(db.corrupt.Load()) }

// Insert stores one message (and appends it to its WAL segment when
// persistent).
func (db *DB) Insert(m wire.Message) error {
	return db.InsertBatch([]wire.Message{m})
}

// InsertBatch stores several messages under per-shard lock/flush cycles,
// partitioning them by wire.PartitionHash(JobID, Host). WAL serialisation
// happens before any lock is taken, so concurrent callers overlap the
// encoding work and only the segment append and index update serialise —
// per shard, not globally.
//
// Each shard group commits independently: on error the other groups are
// still attempted (one shard's full disk should not discard rows bound for
// healthy shards), so a non-nil return means *some* messages were not
// stored, not that none were. Callers must not blindly retry the whole
// batch — the stored subset would duplicate; SIREN's loss-tolerant layers
// treat a failed group like any other counted loss instead.
func (db *DB) InsertBatch(ms []wire.Message) error {
	if len(ms) == 0 {
		return nil
	}
	if len(db.shards) == 1 {
		return db.insertShard(db.shards[0], ms)
	}
	groups := make([][]wire.Message, len(db.shards))
	for _, m := range ms {
		i := db.shardIndex(m)
		groups[i] = append(groups[i], m)
	}
	var errs []error
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := db.insertShard(db.shards[i], g); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// InsertShard stores a batch directly into one shard, skipping the
// per-message hash partitioning. The caller asserts every message hashes to
// this shard — the receiver's writer shards hold that by construction when
// writer count equals StoreShards(). A misrouted batch costs segment
// locality, not correctness: queries merge all shards, replay re-partitions
// by hash on the next open, and the streaming consolidation's fan-in
// detects identities split across shards and falls back to a merged
// cross-shard pass for the affected job.
func (db *DB) InsertShard(shard int, ms []wire.Message) error {
	if shard < 0 || shard >= len(db.shards) {
		return fmt.Errorf("sirendb: shard %d out of range [0,%d)", shard, len(db.shards))
	}
	if len(ms) == 0 {
		return nil
	}
	return db.insertShard(db.shards[shard], ms)
}

func (db *DB) shardIndex(m wire.Message) int {
	if len(db.shards) == 1 {
		return 0
	}
	return int(wire.PartitionHash([]byte(m.JobID), []byte(m.Host)) % uint64(len(db.shards)))
}

func (db *DB) insertShard(s *shard, ms []wire.Message) error {
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	persistent := db.path != ""
	if persistent && db.closed.Load() {
		return ErrClosed
	}
	// A failed group commit means durability is already lost for an
	// acknowledged window; fail inserts immediately (the receiver surfaces
	// this in its stats) instead of acknowledging rows that may never reach
	// the platter — the operator learns now, not at Close.
	if persistent && db.syncFailed.Load() {
		return db.takeSyncErr()
	}
	var buf []byte
	var marks []recordMark
	if persistent {
		var err error
		if buf, marks, err = encodeRecords(ms); err != nil {
			return err
		}
	}
	s.mu.Lock()
	if persistent && s.wal == nil {
		s.mu.Unlock()
		return ErrClosed
	}
	// Sequence numbers are reserved under the shard lock so each shard's
	// rows (and its segment's records) stay seq-sorted; the atomic keeps
	// the counter consistent across shards.
	start := db.seq.Add(uint64(len(ms))) - uint64(len(ms))
	if buf != nil {
		for i, mk := range marks {
			patchRecordSeq(buf, mk, start+1+uint64(i))
		}
		appendStart := time.Now()
		if _, err := s.wal.Write(buf); err != nil {
			// A short write advanced the file offset past s.written; rewind
			// so the next append overwrites the partial record instead of
			// leaving a misframing gap in the segment. If even the rewind
			// fails the offset is unknowable — poison the shard rather than
			// let a later append create a gap that frame-skips replay into
			// acknowledged records.
			if _, serr := s.wal.Seek(s.written, io.SeekStart); serr != nil {
				db.recordSyncErr(fmt.Errorf("sirendb: WAL offset unrecoverable after failed write: %w", serr))
				_ = s.wal.Close() // shard is being poisoned; the write error wins
				s.wal = nil
			}
			s.mu.Unlock()
			return fmt.Errorf("sirendb: WAL write: %w", err)
		}
		db.mx.walAppendNS.Since(appendStart)
		s.written += int64(len(buf))
	}
	for i := range ms {
		s.appendLocked(ms[i], start+1+uint64(i))
	}
	s.mu.Unlock()
	if persistent {
		if db.opts.SyncInterval < 0 {
			if err := s.fsync(); err != nil {
				// Poison like the background path: a failed fdatasync may
				// have marked the dirty pages clean (Linux ≥ 4.13), so a
				// "successful" retry would not make the lost window durable.
				db.recordSyncErr(err)
				return err
			}
			return nil
		}
		s.notifyDirty()
	}
	return nil
}

// rlockAll read-locks every shard (ascending, matching the global lock
// order) so cross-shard reads see one consistent snapshot; the returned
// function releases them. Per-shard locking would let a concurrent insert
// land between shard visits and surface a later row without its
// predecessor — a state the single-mutex store could never expose.
func (db *DB) rlockAll() func() {
	for _, s := range db.shards {
		s.mu.RLock()
	}
	return func() {
		for _, s := range db.shards {
			s.mu.RUnlock()
		}
	}
}

// Count returns the number of stored messages, sealed runs included.
func (db *DB) Count() int {
	defer db.rlockAll()()
	n := 0
	for _, s := range db.shards {
		n += len(s.rows) + s.sealedRows
	}
	return n
}

// tierViews captures every shard's head rows and sealed-run set under one
// brief all-shard read lock. Both are copy-on-write (rows append-only, run
// slices swapped wholesale by Seal/retention), so the captured headers stay
// valid without the lock.
func (db *DB) tierViews() (rows [][]row, runs [][]sealedRun) {
	rows = make([][]row, len(db.shards))
	runs = make([][]sealedRun, len(db.shards))
	unlock := db.rlockAll()
	for i, s := range db.shards {
		rows[i] = s.rows
		runs[i] = s.runs
	}
	unlock()
	return rows, runs
}

// noteRunErr records a lazy run-read failure (a block checksum mismatch
// found while decoding an already-opened run). The affected stream ends
// early rather than yielding wrong rows; the counter surfaces through Stats
// so the loss is observable, in keeping with SIREN's graceful-failure
// design (a torn *committed* run is caught hard at Open instead).
func (db *DB) noteRunErr(error) {
	db.runReadErrs.Add(1)
	db.mx.runReadErrs.Inc()
}

// Scan streams every message exactly once; return false to stop. The
// stream is a seq-merge across shard heads and sealed runs: head rows come
// out in global insertion order, a sealed run's rows in its on-disk
// (job, host, seq) sort — so any one (job, host) stream is always in
// insertion order, while rows of different hosts may be grouped rather than
// globally seq-interleaved once sealed. Scan reads a
// point-in-time snapshot captured under a brief lock: the callback runs
// with no store lock held, so it may block, take arbitrarily long, or even
// insert into the store without stalling writers or deadlocking; rows
// inserted after the Scan began are not surfaced. Use Snapshot for repeated
// reads of one cut.
func (db *DB) Scan(f func(m wire.Message) bool) {
	rows, runs := db.tierViews()
	mergeSrcs(tierSources(rows, runs, db.noteRunErr), func(m wire.Message, _ uint64) bool { return f(m) })
}

// All returns a copy of every message, sealed runs included, in Scan's
// order (insertion order per (job, host); host blocks once sealed).
func (db *DB) All() []wire.Message {
	rows, runs := db.tierViews()
	n := 0
	for i := range rows {
		n += len(rows[i])
		for _, sr := range runs[i] {
			n += sr.run.Rows()
		}
	}
	out := make([]wire.Message, 0, n)
	mergeSrcs(tierSources(rows, runs, db.noteRunErr), func(m wire.Message, _ uint64) bool {
		out = append(out, m)
		return true
	})
	return out
}

// jobTierViews captures, under one all-shard read lock, each shard's head
// rows, its by-job index entry for jobID, and the sealed runs that contain
// jobID (located through each run's embedded job index — O(log jobs), no
// row decode). n counts head index entries plus run job rows.
func (db *DB) jobTierViews(jobID string) (rows [][]row, idxs [][]int, runs [][]sealedRun, n int) {
	rows = make([][]row, len(db.shards))
	idxs = make([][]int, len(db.shards))
	runs = make([][]sealedRun, len(db.shards))
	unlock := db.rlockAll()
	for i, s := range db.shards {
		rows[i] = s.rows
		idxs[i] = s.byJob[jobID]
		n += len(idxs[i])
		for _, sr := range s.runs {
			if jr, _, _, ok := sr.run.JobStats(jobID); ok {
				runs[i] = append(runs[i], sr)
				n += jr
			}
		}
	}
	unlock()
	return rows, idxs, runs, n
}

// ByJob returns all messages of one job in insertion order, sealed runs
// included. The head contributes its sequence-sorted index lists, each run
// its indexed job extents; the per-shard streams k-way merge by sequence.
func (db *DB) ByJob(jobID string) []wire.Message {
	rows, idxs, runs, n := db.jobTierViews(jobID)
	out := make([]wire.Message, 0, n)
	mergeSrcs(jobSources(rows, idxs, runs, jobID, db.noteRunErr), func(m wire.Message, _ uint64) bool {
		out = append(out, m)
		return true
	})
	return out
}

// ByJobFunc streams one job's messages in insertion order without
// materialising a slice — the zero-copy variant of ByJob. Return false to
// stop. No store lock is held while f runs.
func (db *DB) ByJobFunc(jobID string, f func(m wire.Message) bool) {
	rows, idxs, runs, _ := db.jobTierViews(jobID)
	mergeSrcs(jobSources(rows, idxs, runs, jobID, db.noteRunErr), func(m wire.Message, _ uint64) bool { return f(m) })
}

// Jobs returns the distinct job IDs, sorted — the head's cached key sets
// merged with each sealed run's embedded job index (already sorted, no row
// decode).
func (db *DB) Jobs() []string {
	lists := make([][]string, 0, len(db.shards))
	unlock := db.rlockAll()
	for _, s := range db.shards {
		lists = append(lists, sortedKeysOf(&s.jobKeys, s.byJob))
		for _, sr := range s.runs {
			lists = append(lists, sr.run.Jobs())
		}
	}
	unlock()
	return mergeSortedUnique(lists)
}

// mergeSortedUnique k-way merges sorted string lists, dropping duplicates.
func mergeSortedUnique(lists [][]string) []string {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]string, 0, n)
	pos := make([]int, len(lists))
	for {
		best, found := "", false
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if !found || l[pos[i]] < best {
				best, found = l[pos[i]], true
			}
		}
		if !found {
			return out
		}
		out = append(out, best)
		for i, l := range lists {
			if pos[i] < len(l) && l[pos[i]] == best {
				pos[i]++
			}
		}
	}
}

// StoreStats is a point-in-time summary of store state for telemetry
// (cmd/siren-receiver exports it via expvar alongside the receiver's
// counters).
type StoreStats struct {
	Rows           int    // stored messages (WAL head + sealed runs)
	Shards         int    // store shards
	LastSeq        uint64 // highest assigned store-wide sequence number
	CorruptRecords int    // WAL records skipped during replay
	WALBytes       int64  // bytes appended across all segments
	WALSynced      int64  // bytes confirmed durable by fdatasync
	SyncFailed     bool   // a group commit failed; the store is poisoned
	SealedGen      int    // highest committed seal generation (0 = never sealed)
	SealedRuns     int    // attached sealed run files
	SealedRows     int    // rows living in sealed runs
	SealedBytes    int64  // bytes across sealed run files
	RunReadErrors  int    // lazy run-read failures (block corruption found after Open)
}

// Stats snapshots the store's telemetry counters.
func (db *DB) Stats() StoreStats {
	st := StoreStats{
		Shards:         len(db.shards),
		LastSeq:        db.seq.Load(),
		CorruptRecords: int(db.corrupt.Load()),
		SyncFailed:     db.syncFailed.Load(),
		RunReadErrors:  int(db.runReadErrs.Load()),
	}
	db.sealMu.Lock()
	st.SealedGen = db.sealGen
	db.sealMu.Unlock()
	for _, s := range db.shards {
		s.mu.RLock()
		st.Rows += len(s.rows) + s.sealedRows
		st.SealedRuns += len(s.runs)
		st.SealedRows += s.sealedRows
		for _, sr := range s.runs {
			st.SealedBytes += sr.run.Size()
		}
		st.WALBytes += s.written
		s.mu.RUnlock()
		st.WALSynced += s.synced.Load()
	}
	return st
}

// Sync is the durability barrier: it fdatasyncs every shard's segment and
// returns only when every row inserted before the call is stable — the
// synchronous form of the group commit the background syncers run on a
// timer. It also surfaces any earlier background sync failure.
func (db *DB) Sync() error {
	if db.path == "" || db.opts.ReadOnly {
		return nil // nothing of ours is unsynced
	}
	if db.closed.Load() {
		return ErrClosed
	}
	for _, s := range db.shards {
		if err := s.fsync(); err != nil {
			// Sticky, like the background path: the un-synced window is
			// lost even if a later fdatasync "succeeds" (Linux marks the
			// failed dirty pages clean).
			db.recordSyncErr(err)
			return err
		}
	}
	return db.takeSyncErr()
}

// Close stops the group-commit syncers, fdatasyncs and closes every segment,
// and releases the advisory lock. The in-memory view stays readable; further
// inserts on a persistent store return ErrClosed. Close is idempotent.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	if db.path == "" {
		return nil
	}
	close(db.stopSync)
	db.syncWG.Wait()
	var first error
	for _, s := range db.shards {
		s.syncMu.Lock()
		s.mu.Lock()
		f := s.wal
		s.wal = nil
		s.mu.Unlock()
		if f != nil {
			if err := fdatasync(f); err != nil && first == nil {
				first = fmt.Errorf("sirendb: close: %w", err)
			}
			if err := f.Close(); err != nil && first == nil {
				first = fmt.Errorf("sirendb: close: %w", err)
			}
		}
		s.syncMu.Unlock()
	}
	// Closing the lock file releases the flock. The lock file itself stays
	// on disk: unlinking it would let a concurrent Open lock a fresh inode
	// while a third process still holds the old one.
	if db.lockFile != nil {
		if err := db.lockFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("sirendb: close: %w", err)
		}
	}
	if first == nil {
		first = db.takeSyncErr()
	}
	return first
}

func (db *DB) recordSyncErr(err error) {
	db.syncErrMu.Lock()
	if db.syncErr == nil {
		db.syncErr = err
	}
	db.syncErrMu.Unlock()
	db.syncFailed.Store(true)
}

// takeSyncErr reports the first background fdatasync failure. The error is
// sticky: durability was lost for some acknowledged window, so every later
// insert and barrier keeps failing rather than pretending the store
// recovered.
func (db *DB) takeSyncErr() error {
	db.syncErrMu.Lock()
	defer db.syncErrMu.Unlock()
	return db.syncErr
}
