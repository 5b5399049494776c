// Multi-open: analysing a horizontally partitioned deployment.
//
// A multi-receiver deployment runs N receiver processes, each admitting the
// (JOBID, HOST) keys it owns under the campaign roster and writing
// its own WAL-backed store. Analysis needs the union: OpenSet opens every
// member database and MergedSnapshot presents their snapshots as one —
// per-shard cursors from every member, globally ordered by (member, seq).
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
	"slices"
	"sort"

	"siren/internal/wire"
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

// Snapshot captures a point-in-time view of every member and merges them.
// The capture is per-member consistent (each member's snapshot is its own
// consistent cut); cross-member consistency is not needed — members hold
// disjoint campaign partitions, except where a failover left a recovered
// member's partial copy of runs another member holds in full (DESIGN.md
// §11). A set of more than one member therefore comes back with
// DedupOverlaps applied, so every reader of the set — siren-analyze and
// siren-serve alike — counts each run once; the disjoint members of a
// static roster dedup to nothing, and a one-member set does no extra work.
func (s *DBSet) Snapshot() *MergedSnapshot {
	snaps := make([]*Snapshot, len(s.dbs))
	for i, db := range s.dbs {
		snaps[i] = db.Snapshot()
	}
	ms := MergeSnapshots(snaps)
	if len(snaps) > 1 {
		ms.DedupOverlaps()
	}
	return ms
}

// memberShard maps one merged-shard index back to (member, local shard).
type memberShard struct {
	member int
	shard  int
}

// MergedSnapshot presents N member snapshots as one: the shard axis is the
// concatenation of every member's shards, and sequence numbers are rebased
// so global order is (member index, member seq). It exposes the same cursor
// surface as Snapshot (postprocess.SnapshotView), so the streaming
// consolidation, analysis, and reporting run unchanged over N receiver
// databases.
type MergedSnapshot struct {
	members []*Snapshot
	offsets []uint64      // per-member seq rebase: sum of preceding LastSeqs
	shards  []memberShard // flattened merged-shard index space
	count   int

	// Overlap-dedup state (see dedup.go; all nil/zero until DedupOverlaps):
	// drop[m] holds member m's suppressed (job, host) runs, deadShardJobs
	// maps a merged shard index to jobs with zero surviving rows there.
	drop          []map[jobHost]struct{}
	deadShardJobs map[int]map[string]struct{}
	dedup         DedupStats
}

// MergeSnapshots builds the merged view over already-captured member
// snapshots, in member order. Useful when the members' capture points are
// controlled individually; DBSet.Snapshot is the common path.
func MergeSnapshots(members []*Snapshot) *MergedSnapshot {
	ms := &MergedSnapshot{
		members: members,
		offsets: make([]uint64, len(members)),
	}
	var off uint64
	for i, sn := range members {
		ms.offsets[i] = off
		off += sn.LastSeq()
		ms.count += sn.Count()
		for s := 0; s < sn.Shards(); s++ {
			ms.shards = append(ms.shards, memberShard{member: i, shard: s})
		}
	}
	return ms
}

// Members reports the number of member snapshots behind the merged view.
func (ms *MergedSnapshot) Members() int { return len(ms.members) }

// Shards reports the merged shard count: the sum of every member's shards.
// Merged shard indexes enumerate member 0's shards first, then member 1's,
// and so on.
func (ms *MergedSnapshot) Shards() int { return len(ms.shards) }

// Count reports the number of messages across all members.
func (ms *MergedSnapshot) Count() int { return ms.count }

// LastSeq reports the highest rebased sequence number the merged snapshot
// contains; every row it yields has seq <= LastSeq.
func (ms *MergedSnapshot) LastSeq() uint64 {
	if len(ms.members) == 0 {
		return 0
	}
	last := len(ms.members) - 1
	return ms.offsets[last] + ms.members[last].LastSeq()
}

// JobsChangedSince returns the job IDs with at least one row whose rebased
// sequence number is strictly greater than since, sorted. Watermarks are
// only comparable across merged snapshots with the same member set in the
// same order and non-shrinking members (both deployment shapes guarantee
// that: a live store only appends, and an OpenSet holds every member's
// exclusive lock so a finished campaign cannot change at all) — rebasing
// offsets are cumulative member LastSeqs, so removing or reordering members
// would re-home rebased sequence ranges. After DedupOverlaps the result is
// conservative: a job may be reported changed even when its only new rows
// were suppressed duplicates (the refresh then re-consolidates it from the
// surviving rows — wasted work, never wrong data).
func (ms *MergedSnapshot) JobsChangedSince(since uint64) []string {
	seen := make(map[string]struct{})
	for i, sn := range ms.members {
		// Member i's rows carry rebased seqs in (off, off+LastSeq]; translate
		// the global watermark into the member's local sequence space.
		off := ms.offsets[i]
		var local uint64
		if since > off {
			if since >= off+sn.LastSeq() {
				continue // watermark is past this member's whole range
			}
			local = since - off
		}
		for _, job := range sn.JobsChangedSince(local) {
			seen[job] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for job := range seen {
		out = append(out, job)
	}
	sort.Strings(out)
	return out
}

// ShardJobs returns merged shard i's distinct job IDs in first-appearance
// order — Snapshot.ShardJobs over the owning member's local shard, minus
// jobs whose every row there was dedup-suppressed.
func (ms *MergedSnapshot) ShardJobs(i int) []string {
	m := ms.shards[i]
	jobs := ms.members[m.member].ShardJobs(m.shard)
	dead := ms.deadShardJobs[i]
	if len(dead) == 0 {
		return jobs
	}
	out := make([]string, 0, len(jobs))
	for _, j := range jobs {
		if _, gone := dead[j]; !gone {
			out = append(out, j)
		}
	}
	return out
}

// ShardJobRows streams merged shard i's rows of one job in insertion order
// with rebased sequence numbers, skipping dedup-suppressed runs; return
// false to stop. Rows are views, as Snapshot.ShardJobRows hands them out.
func (ms *MergedSnapshot) ShardJobRows(i int, job string, f func(row *wire.Scanned, seq uint64) bool) {
	sh := ms.shards[i]
	off := ms.offsets[sh.member]
	ms.members[sh.member].ShardJobRows(sh.shard, job, func(row *wire.Scanned, seq uint64) bool {
		if ms.droppedRow(sh.member, job, row) {
			return true
		}
		return f(row, off+seq)
	})
}

// ShardJobLen bounds how many rows ShardJobRows(i, job) yields: the owning
// member's count, dedup-suppressed rows included.
func (ms *MergedSnapshot) ShardJobLen(i int, job string) int {
	sh := ms.shards[i]
	return ms.members[sh.member].ShardJobLen(sh.shard, job)
}

// JobShardCounts maps every job ID to the number of merged shards holding
// at least one surviving row of that job — the fan-in count per job, summed
// across members (a multi-host job may span members when its hosts hash to
// different partitions, exactly as it may span shards within one store).
// Shard segments emptied by dedup are not counted, keeping the promise to
// the streaming consolidator (SnapshotView) exact: ShardJobRows yields rows
// in exactly JobShardCounts[job] shards.
func (ms *MergedSnapshot) JobShardCounts() map[string]int {
	out := make(map[string]int)
	for _, sn := range ms.members {
		for job, n := range sn.JobShardCounts() {
			out[job] += n
		}
	}
	for _, dead := range ms.deadShardJobs {
		for job := range dead {
			if out[job]--; out[job] == 0 {
				delete(out, job)
			}
		}
	}
	return out
}

// JobRows streams every row of one job in merged global order: member by
// member, each member's rows in its own insertion order. Rows of different
// members never interleave — member boundaries are strict sequence
// boundaries under the rebase.
func (ms *MergedSnapshot) JobRows(job string, f func(m wire.Message) bool) {
	stop := false
	for i, sn := range ms.members {
		if stop {
			return
		}
		sn.JobRows(job, func(m wire.Message) bool {
			if ms.dropped(i, job, m.Host) {
				return true
			}
			if !f(m) {
				stop = true
			}
			return !stop
		})
	}
}

// Iter streams every message across all members in merged global order
// (member index, then member insertion order); return false to stop.
func (ms *MergedSnapshot) Iter(f func(m wire.Message) bool) {
	stop := false
	for i, sn := range ms.members {
		if stop {
			return
		}
		sn.Iter(func(m wire.Message) bool {
			if ms.dropped(i, m.JobID, m.Host) {
				return true
			}
			if !f(m) {
				stop = true
			}
			return !stop
		})
	}
}

// Jobs returns the distinct job IDs across all members, sorted.
func (ms *MergedSnapshot) Jobs() []string {
	var out []string
	for _, sn := range ms.members {
		out = append(out, sn.Jobs()...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
