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
// Every record carries a store-wide sequence number, so a Snapshot — the
// store's only reader — presents the merged shards in global insertion
// order. Replay tolerates a torn final record (crash mid-write) and skips
// corrupt records (checksummed), in keeping with SIREN's graceful-failure
// design. Seal (seal.go) is the store's only rewrite transaction: it freezes
// the WAL head into immutable sorted runs and truncates the segments.
package sirendb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	// a different count is safe: replay reads every segment on disk
	// regardless of the configured count, segment k into shard k % Shards.
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
	// Metrics is the registry the store's instruments register in: WAL
	// append and group-commit fdatasync latency, commit batch bytes, Seal
	// phase durations, run-read errors, and the WAL-head and sealed byte
	// gauges (see internal/obs). Nil gets a
	// private registry; telemetry is always recorded. Stores sharing a
	// registry share its instruments, StoreStats.RunReadErrors included.
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
	// behind. Both only ever grow.
	sealMu    sync.Mutex
	sealGen   int
	sealedSeq uint64

	// mx holds the store's obs instruments (see storeMetrics).
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
	db.mx = newStoreMetrics(opts.Metrics, db)
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
// partitioning them by wire.PartitionHash(JobID, Host). Each message is
// encoded straight into its shard's head chunk and from there takes the
// path of a datagram InsertScanned stores, so a row is held as the same
// bytes whichever way it came.
//
// A batch holding a message the store could not read back (checkRecordLens)
// is refused whole, before anything is written. Beyond that, each shard
// group commits independently: on error the other groups are
// still attempted (one shard's full disk should not discard rows bound for
// healthy shards), so a non-nil return means *some* messages were not
// stored, not that none were. Callers must not blindly retry the whole
// batch — the stored subset would duplicate; SIREN's loss-tolerant layers
// treat a failed group like any other counted loss instead.
func (db *DB) InsertBatch(ms []wire.Message) error {
	if len(ms) == 0 {
		return nil
	}
	if err := checkRecordLens(ms); err != nil {
		return err
	}
	if len(db.shards) == 1 {
		return db.insertMessages(db.shards[0], ms)
	}
	groups := make([][]wire.Message, len(db.shards))
	for _, m := range ms {
		i := db.shardIndex([]byte(m.JobID), []byte(m.Host))
		groups[i] = append(groups[i], m)
	}
	var errs []error
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := db.insertMessages(db.shards[i], g); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// InsertShard stores a batch directly into one shard, skipping the
// per-message hash partitioning. The caller asserts every message hashes to
// this shard — the receiver's writer shards hold that by construction when
// writer count equals StoreShards(). A misrouted batch costs locality, not
// correctness: every reader merges a job across shards, and the rows stay
// on the shard they were inserted into, across a reopen and a seal too.
func (db *DB) InsertShard(shard int, ms []wire.Message) error {
	if shard < 0 || shard >= len(db.shards) {
		return fmt.Errorf("sirendb: shard %d out of range [0,%d)", shard, len(db.shards))
	}
	if len(ms) == 0 {
		return nil
	}
	if err := checkRecordLens(ms); err != nil {
		return err
	}
	return db.insertMessages(db.shards[shard], ms)
}

// InsertScanned is InsertShard for datagrams as they arrived, each with its
// wire.Scan: the head keeps the datagram's own bytes as the row, copied once
// into the shard's head chunk, and the same bytes are the WAL append — no
// decode, no encode, no per-row allocation. A datagram that is not
// canonical (an integer spelled with '+', a leading zero, -0) is first
// re-encoded, so the store holds exactly the bytes a decode-and-encode
// store would. The routing contract is InsertShard's.
func (db *DB) InsertScanned(shard int, ds []wire.Scanned) error {
	if shard < 0 || shard >= len(db.shards) {
		return fmt.Errorf("sirendb: shard %d out of range [0,%d)", shard, len(db.shards))
	}
	if len(ds) == 0 {
		return nil
	}
	for i := range ds {
		if !ds[i].Canonical {
			return db.insertScanned(db.shards[shard], canonical(ds))
		}
	}
	return db.insertScanned(db.shards[shard], ds)
}

// canonical returns ds with every non-canonical datagram re-encoded.
func canonical(ds []wire.Scanned) []wire.Scanned {
	out := slices.Clone(ds)
	for i := range out {
		if out[i].Canonical {
			continue
		}
		m, err := wire.Parse(out[i].Datagram)
		if err != nil {
			continue // not a scan of this datagram; stored as handed over
		}
		out[i].Datagram, out[i].Fields = wire.AppendEncodeFields(nil, &m)
	}
	return out
}

func (db *DB) shardIndex(job, host []byte) int {
	if len(db.shards) == 1 {
		return 0
	}
	return int(wire.PartitionHash(job, host) % uint64(len(db.shards)))
}

// insertMessages stores ms, which checkRecordLens accepted, each encoded
// straight into the head chunk.
func (db *DB) insertMessages(s *shard, ms []wire.Message) error {
	size := 0
	for i := range ms {
		size += recHdrSize + wire.EncodedLen(&ms[i])
	}
	if size > maxBatchBytes {
		return fmt.Errorf("sirendb: batch of %d bytes exceeds the %d-byte batch limit", size, maxBatchBytes)
	}
	return db.insert(s, nil, ms)
}

func (db *DB) insertScanned(s *shard, ds []wire.Scanned) error {
	size := 0
	for i := range ds {
		n := len(ds[i].Datagram)
		if n > maxRecordLen {
			return fmt.Errorf("sirendb: message of %d bytes exceeds the %d-byte record limit", n, maxRecordLen)
		}
		size += recHdrSize + n
	}
	if size > maxBatchBytes {
		return fmt.Errorf("sirendb: batch of %d bytes exceeds the %d-byte batch limit", size, maxBatchBytes)
	}
	return db.insert(s, ds, nil)
}

// insert stores one batch in shard s — the datagrams ds, or when ds is nil
// the messages ms — under one lock: seqs reserved, records framed into the
// head chunk, that byte range appended to the segment, the rows indexed.
func (db *DB) insert(s *shard, ds []wire.Scanned, ms []wire.Message) error {
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
	n := uint64(len(ds) + len(ms))
	s.mu.Lock()
	if persistent && s.wal == nil {
		s.mu.Unlock()
		return ErrClosed
	}
	// Sequence numbers are reserved under the shard lock so each shard's
	// rows (and its segment's records) stay seq-sorted; the atomic keeps
	// the counter consistent across shards.
	first := db.seq.Add(n) - n + 1
	var framed []byte
	if ds != nil {
		framed = s.head.stage(ds, first)
	} else {
		framed, ds = s.head.stageMessages(ms, first)
	}
	if persistent {
		appendStart := time.Now()
		if _, err := s.wal.Write(framed); err != nil {
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
		s.written += int64(len(framed))
	}
	s.head.commit(ds, first)
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
		n += len(s.head.entries) + s.sealedRows
	}
	return n
}

// StoreStats is a point-in-time summary of store state for telemetry. Every
// field is on /metrics: RunReadErrors as siren_run_read_errors_total, the
// rest as siren_store_* gauges (metrics.go).
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
	HeadBytes      int64  // framed WAL-head bytes held in memory
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
		RunReadErrors:  int(db.mx.runReadErrs.Value()),
	}
	db.sealMu.Lock()
	st.SealedGen = db.sealGen
	db.sealMu.Unlock()
	for _, s := range db.shards {
		s.mu.RLock()
		st.Rows += len(s.head.entries) + s.sealedRows
		st.HeadBytes += s.head.bytes
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
