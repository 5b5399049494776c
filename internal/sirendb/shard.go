package sirendb

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/obs"
	"siren/internal/sirendb/runfmt"
)

// sealedRun is one immutable sorted run attached to a shard: the frozen
// remains of an earlier WAL head, reachable in O(index) without replay.
// gen is the seal generation that produced it; fileShard is the shard index
// baked into its file name, which equals the owning shard's index unless
// the store was reopened with a different shard count.
type sealedRun struct {
	gen       int
	fileShard int
	path      string
	run       *runfmt.Run
}

// shard owns one partition of the store: its WAL head and segment file. All
// writes to one (JobID, Host) land on one shard, so inserts across shards
// never contend.
type shard struct {
	mu      sync.RWMutex
	head    head
	wal     *os.File
	written int64 // valid bytes appended to the segment (under mu)

	// runs are the shard's sealed tier, oldest generation first. The slice
	// is copy-on-write under mu: Seal and retention swap in a fresh slice,
	// so a snapshot's captured header stays valid forever. sealedRows is the
	// row total across runs, kept alongside so Count stays O(shards).
	runs       []sealedRun
	sealedRows int

	// synced is how many segment bytes are known durable (fdatasync
	// confirmed). Only the group-commit path under syncMu advances it, so
	// it grows monotonically; the crash-recovery tests read it to model
	// what survives power loss.
	synced atomic.Int64
	// syncMu serialises fdatasync with Seal's truncation and Close,
	// without holding mu across the disk wait — appends proceed while a
	// group commit is in flight. Lock order: syncMu before mu.
	syncMu sync.Mutex
	// dirty is the group-commit doorbell: a buffered token wakes the syncer
	// after the first unsynced append; further appends in the window
	// piggyback on the pending commit.
	dirty chan struct{}

	// fsyncNS / commitBytes are the store's group-commit instruments,
	// shared by every shard (see storeMetrics).
	fsyncNS     *obs.Histogram
	commitBytes *obs.Histogram
}

func newShard() *shard {
	return &shard{dirty: make(chan struct{}, 1)}
}

func (s *shard) notifyDirty() {
	select {
	case s.dirty <- struct{}{}:
	default:
	}
}

// fsync makes every byte appended so far durable. The write offset is
// snapshotted under mu, but the fdatasync itself runs with only syncMu held,
// so appends continue while the disk flushes — the essence of group commit.
func (s *shard) fsync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	f, w := s.wal, s.written
	s.mu.Unlock()
	if f == nil || s.synced.Load() >= w {
		return nil
	}
	start := time.Now()
	if err := fdatasync(f); err != nil {
		return err
	}
	s.fsyncNS.Since(start)
	s.commitBytes.Record(w - s.synced.Load())
	s.synced.Store(w)
	return nil
}

// syncLoop is the per-shard group-commit syncer: it sleeps until a write
// rings the doorbell, lets the batch accumulate for SyncInterval, then
// fdatasyncs everything at once. An appended record is therefore durable at
// most SyncInterval (plus one disk flush) after Insert returned.
func (db *DB) syncLoop(s *shard) {
	defer db.syncWG.Done()
	for {
		select {
		case <-db.stopSync:
			return // Close fdatasyncs each shard during shutdown
		case <-s.dirty:
			t := time.NewTimer(db.opts.SyncInterval)
			select {
			case <-t.C:
			case <-db.stopSync:
				t.Stop()
				return
			}
			if err := s.fsync(); err != nil {
				db.recordSyncErr(err)
			}
		}
	}
}
