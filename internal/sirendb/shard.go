package sirendb

import (
	"cmp"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/obs"
	"siren/internal/sirendb/runfmt"
	"siren/internal/wire"
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

// row is one stored message plus its store-wide sequence number, the key the
// shard-merge in Scan/ByJob orders by. It is the sealed tier's row type, so
// Seal hands a shard's head to runfmt.Write as it stands, without a copy.
type row = runfmt.Row

// shard owns one partition of the store: its rows, by-job index, and
// WAL segment file. All writes to one (JobID, Host) land on one shard, so
// inserts across shards never contend.
type shard struct {
	mu      sync.RWMutex
	rows    []row
	byJob   map[string][]int
	wal     *os.File
	written int64 // valid bytes appended to the segment (under mu)

	// runs are the shard's sealed tier, oldest generation first. The slice
	// is copy-on-write under mu: Seal and retention swap in a fresh slice,
	// so a snapshot's captured header stays valid forever. sealedRows is the
	// row total across runs, kept alongside so Count stays O(shards).
	runs       []sealedRun
	sealedRows int

	// jobKeys caches the sorted key set of byJob so Jobs stops re-sorting on
	// every call. A cache entry is an immutable slice stamped with the map
	// size it was built from; the map only ever gains keys, so size equality
	// means freshness. Readers load and (re)build the cache under the shard's
	// read lock — a racing duplicate rebuild stores an identical value, and
	// the atomic pointer keeps old snapshots of the slice valid forever.
	jobKeys atomic.Pointer[sortedKeys]

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
	// shared by every shard (nil-safe no-ops when the store is
	// uninstrumented; see storeMetrics).
	fsyncNS     *obs.Histogram
	commitBytes *obs.Histogram
}

// sortedKeys is an immutable sorted key cache for the by-job index.
type sortedKeys struct {
	keys []string
	n    int // len of the index map when built; maps only grow, so n == len(m) ⇔ fresh
}

// sortedKeysOf returns the sorted keys of index map m through the cache,
// rebuilding it only when the map gained keys since the last build. Call
// with the shard lock held (read suffices).
func sortedKeysOf(cache *atomic.Pointer[sortedKeys], m map[string][]int) []string {
	if c := cache.Load(); c != nil && c.n == len(m) {
		return c.keys
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cache.Store(&sortedKeys{keys: keys, n: len(m)})
	return keys
}

func newShard() *shard {
	return &shard{
		byJob: make(map[string][]int),
		dirty: make(chan struct{}, 1),
	}
}

func (s *shard) appendLocked(m wire.Message, seq uint64) {
	idx := len(s.rows)
	s.rows = append(s.rows, row{Seq: seq, Msg: m})
	s.byJob[m.JobID] = append(s.byJob[m.JobID], idx)
}

// appendReplay adds a replayed row without index maintenance; the caller
// runs rebuildIndex once after all segments are read. reserve is the
// caller's estimate of how many more rows follow: when the slice is full it
// grows to fit them at once instead of doubling its way up from nil.
func (s *shard) appendReplay(m wire.Message, seq uint64, reserve int) {
	if len(s.rows) == cap(s.rows) {
		s.rows = slices.Grow(s.rows, reserve+1)
	}
	s.rows = append(s.rows, row{Seq: seq, Msg: m})
}

// rebuildIndex restores seq order and rebuilds the by-job index. One segment
// delivers its rows seq-ascending, which is the normal case and needs no
// sort; only leftovers from an older shard count, replayed after the
// shard's own segment, interleave.
func (s *shard) rebuildIndex() {
	bySeq := func(a, b row) int { return cmp.Compare(a.Seq, b.Seq) }
	if !slices.IsSortedFunc(s.rows, bySeq) {
		slices.SortStableFunc(s.rows, bySeq)
	}
	s.byJob = make(map[string][]int)
	s.jobKeys.Store(nil)
	for idx := range s.rows {
		job := s.rows[idx].Msg.JobID
		s.byJob[job] = append(s.byJob[job], idx)
	}
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
