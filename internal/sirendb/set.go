// Multi-open: analysing a horizontally partitioned deployment.
//
// A multi-receiver deployment runs N receiver processes, each admitting the
// (JOBID, HOST) keys it owns under the campaign roster and writing
// its own WAL-backed store. Analysis needs the union: OpenSet opens every
// member database and DBSet.Snapshot presents their snapshots as one
// Snapshot — the shard views of every member side by side, globally ordered
// by (member, seq).
//
// Each member assigns its own store-wide sequence numbers, so raw sequence
// values collide across members. The merged snapshot rebases them: member m's
// rows are shifted by the sum of the preceding members' LastSeq values, which
// preserves every member's internal order and places members strictly one
// after another — rows of different members never interleave, within a job or
// globally. That is exactly the contract the streaming consolidation needs:
// a (job, host) lives wholly inside one member (admission is a deterministic
// function of the same (JOBID, HOST) pair the store shards by), so member
// boundaries never split a host's
// stream, and the fan-in reducer sees each member's segments as contiguous
// sequence ranges.
package sirendb

import (
	"errors"
	"fmt"
)

// DBSet is a set of member databases opened together — the analysis-side
// view of an N-receiver deployment. Every member holds its exclusive
// advisory lock, so a still-running receiver cannot be opened into a set.
type DBSet struct {
	dbs []*DB
}

// OpenSet opens the databases at paths (each a WAL base path, exactly as
// Open takes) with shared options. On any member failing to open, the
// already-open members are closed and the error identifies the path. A
// one-element set behaves identically to the single database.
func OpenSet(paths []string, opts Options) (*DBSet, error) {
	if len(paths) == 0 {
		return nil, errors.New("sirendb: OpenSet needs at least one path")
	}
	set := &DBSet{dbs: make([]*DB, 0, len(paths))}
	for _, p := range paths {
		db, err := OpenOptions(p, opts)
		if err != nil {
			_ = set.Close() // best-effort unwind of the already-opened members
			return nil, fmt.Errorf("sirendb: opening set member %s: %w", p, err)
		}
		set.dbs = append(set.dbs, db)
	}
	return set, nil
}

// Members returns the member databases in set order.
func (s *DBSet) Members() []*DB { return s.dbs }

// Count returns the number of messages stored across all members.
func (s *DBSet) Count() int {
	n := 0
	for _, db := range s.dbs {
		n += db.Count()
	}
	return n
}

// CorruptRecords sums the WAL records skipped during replay across members.
func (s *DBSet) CorruptRecords() int {
	n := 0
	for _, db := range s.dbs {
		n += db.CorruptRecords()
	}
	return n
}

// Close closes every member and reports the first error.
func (s *DBSet) Close() error {
	var errs []error
	for _, db := range s.dbs {
		if err := db.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Snapshot captures a point-in-time view of every member and merges them
// (MergeSnapshots). The capture is per-member consistent (each member's
// snapshot is its own consistent cut); cross-member consistency is not
// needed — members hold disjoint campaign partitions, except where a
// failover left a recovered member's partial copy of runs another member
// holds in full (DESIGN.md §11). The set's snapshot therefore comes back
// with DedupOverlaps applied, so every reader of the set — siren-analyze and
// siren-serve alike — counts each run once; the disjoint members of a static
// roster dedup to nothing, and a one-member set does no extra work.
func (s *DBSet) Snapshot() *Snapshot {
	snaps := make([]*Snapshot, len(s.dbs))
	for i, db := range s.dbs {
		snaps[i] = db.Snapshot()
	}
	sn := MergeSnapshots(snaps)
	sn.DedupOverlaps()
	return sn
}

// MergedSnapshot is another name for Snapshot.
type MergedSnapshot = Snapshot
