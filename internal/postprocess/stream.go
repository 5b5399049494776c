// Streaming, job-parallel consolidation — the read-path counterpart of the
// sharded ingest pipeline.
//
// A load-everything pass (every stored message copied into one slice, then
// one global consolidation) materialises that slice, one global reassembly
// map, and one global group map before producing a single record: peak
// memory O(total messages). The streaming path splits the store into
// (shard, job) units instead — one shard's rows of one job — and workers
// pull units from one shared cursor:
//
//	shard 0: j1 j3 j4 …  ┐                ┌─▶ worker 0 ─┐  per-(shard, job) segments
//	shard 1: j1 j2 j5 …  ┼─▶ unit cursor ─┼─▶ worker 1 ─┼─▶ fan-in reducer ─▶ yield(job)
//	  …                  │   (round robin │     …       │   (completes a job once every
//	shard S: j2 j6 …     ┘    over shards)└─▶ worker W ─┘    shard holding it reported)
//
// The cursor deals the shards' job lists round robin, each list in
// first-appearance order, so the workers advance through every shard at
// once: a large shard does not leave one worker finishing alone, and a job
// spanning shards completes soon after its first unit. A worker's transient
// memory is one in-flight unit (its rows are referenced from the snapshot,
// not copied). Messages of one (job, host) always live in one shard — the
// store partitions by wire.PartitionHash(JobID, Host) — and the
// consolidation grouping key never crosses a job or host, so per-(shard,
// job) segments consolidate to exactly the records a whole-store pass would
// produce. Jobs spanning several hosts can span shards; the reducer holds
// their segments until every shard has reported, then concatenates segments
// in first-row sequence order — each host's stream stays in its insertion
// order, and segments follow the order the job first touched each shard.
package postprocess

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"siren/internal/sirendb"
	"siren/internal/wire"
)

// SnapshotView is the snapshot the streaming consolidation reads: one
// receiver database's or the merged view of N (sirendb.Snapshot documents
// the contract the consolidation depends on).
type SnapshotView = *sirendb.Snapshot

// StreamOptions configure the streaming consolidation.
type StreamOptions struct {
	// Workers bounds the number of concurrent workers. 0 (or anything
	// above the snapshot's shard count) means one worker per shard.
	Workers int
	// JobFilter, when non-nil, restricts the pass to jobs it returns true
	// for; other jobs are skipped before any of their rows are read. This is
	// how an incremental catalog refresh consolidates only the jobs changed
	// since its watermark instead of the whole store.
	JobFilter func(job string) bool
}

// JobRecords is one fully consolidated job — the unit the streaming fan-in
// yields. Records of one host are in that host's insertion order; when a
// job spans several hosts on different shards, the per-shard record groups
// are concatenated in first-row sequence order (their sequence ranges may
// interleave — strict global insertion order across hosts is not
// reconstructed; ConsolidateSnapshot's final sort does not depend on it).
type JobRecords struct {
	JobID   string
	Records []*ProcessRecord
	// Messages is the number of stored wire messages consolidated into this
	// job; Reassembled the number of logical records after chunk reassembly.
	// An incremental consumer carrying whole jobs across passes accumulates
	// these into the Stats a fresh full pass would report.
	Messages    int
	Reassembled int
}

// jobSegment is one shard's contribution to a job.
type jobSegment struct {
	job      string
	firstSeq uint64 // store-wide seq of the shard's first row of this job
	recs     []*ProcessRecord
	records  int // reassembled logical records in this segment
	messages int
}

// ConsolidateStream consolidates a store snapshot job-parallel and calls
// yield once per job as the job completes, with that job's records ordered
// as JobRecords documents; return false from yield to stop early. Jobs
// complete in a scheduler-dependent order across workers — callers needing
// the global deterministic order use ConsolidateSnapshot.
//
// Memory stays bounded by the jobs in flight: each worker holds one unit's
// rows (referenced from the snapshot) while consolidating it, and the
// reducer holds only record segments of multi-shard jobs still waiting for
// a sibling shard. The returned Stats cover the jobs yielded; after an
// early stop they are partial.
func ConsolidateStream(snap SnapshotView, opts StreamOptions, yield func(JobRecords) bool) Stats {
	workers := opts.Workers
	if workers <= 0 || workers > snap.Shards() {
		workers = snap.Shards()
	}
	units := jobUnits(snap, opts.JobFilter)

	segCh := make(chan jobSegment, workers)
	done := make(chan struct{}) // closed on early stop; unblocks worker sends
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []wire.Scanned // reused across units, sized to the largest
			for {
				k := int(next.Add(1)) - 1
				if k >= len(units) {
					return
				}
				sh, job := units[k].shard, units[k].job
				if n := snap.ShardJobLen(sh, job); n > cap(buf) {
					buf = make([]wire.Scanned, 0, n)
				}
				buf = buf[:0]
				var firstSeq uint64
				snap.ShardJobRows(sh, job, func(row *wire.Scanned, seq uint64) bool {
					if len(buf) == 0 {
						firstSeq = seq
					}
					buf = append(buf, *row)
					return true
				})
				// The rows are views into snap's runs; the records copy out
				// of them, and snap stays reachable until they have.
				recs, nRecords := consolidateRows(buf)
				runtime.KeepAlive(snap)
				select {
				case segCh <- jobSegment{job: job, firstSeq: firstSeq, recs: recs, records: nRecords, messages: len(buf)}:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(segCh)
	}()

	counts := snap.JobShardCounts()
	pending := make(map[string][]jobSegment) // multi-shard jobs awaiting siblings
	var stats Stats
	stopped := false
	for seg := range segCh {
		if stopped {
			continue // drain until the workers exit
		}
		jr := JobRecords{JobID: seg.job, Records: seg.recs, Messages: seg.messages, Reassembled: seg.records}
		if n := counts[seg.job]; n > 1 {
			segs := append(pending[seg.job], seg)
			if len(segs) < n {
				pending[seg.job] = segs
				continue
			}
			delete(pending, seg.job)
			jr = fanIn(snap, segs)
		}
		stats.AddJob(jr.Records, jr.Messages, jr.Reassembled)

		if !yield(jr) {
			stopped = true
			close(done)
		}
	}
	return stats
}

// fanIn merges the segments of a job that spans shards in first-row
// sequence order. Rows of one (job, host) normally live within a single
// segment — the store routes by hash(JobID, Host) — so every host stream
// survives the merge intact.
func fanIn(snap SnapshotView, segs []jobSegment) JobRecords {
	slices.SortFunc(segs, func(a, b jobSegment) int { return cmp.Compare(a.firstSeq, b.firstSeq) })
	jr := JobRecords{JobID: segs[0].job}
	n := 0
	for _, s := range segs {
		jr.Messages += s.messages
		jr.Reassembled += s.records
		n += len(s.recs)
	}
	if identityCollision(segs) {
		// Misrouted rows (InsertShard's contract allows them: a batch may
		// land in a shard its messages don't hash to) can split one process
		// identity across segments, which per-segment consolidation would
		// surface as two partial records. Fall back to consolidating this
		// job from the merged cross-shard stream — slower, but exactly what
		// a whole-store pass produces.
		var rows []wire.Scanned
		snap.JobRows(jr.JobID, func(row *wire.Scanned, _ uint64) bool {
			rows = append(rows, *row)
			return true
		})
		jr.Records, jr.Reassembled = consolidateRows(rows)
		runtime.KeepAlive(snap)
		jr.Messages = len(rows)
		return jr
	}
	jr.Records = make([]*ProcessRecord, 0, n)
	for _, s := range segs {
		jr.Records = append(jr.Records, s.recs...)
	}
	return jr
}

// jobUnit is one shard's rows of one job: the work a worker takes at a time.
type jobUnit struct {
	shard int
	job   string
}

// jobUnits lists the snapshot's (shard, job) units that filter admits (all
// when nil): the shards' job lists, each in first-appearance order, dealt
// round robin.
func jobUnits(snap SnapshotView, filter func(job string) bool) []jobUnit {
	lists := make([][]string, snap.Shards())
	n, longest := 0, 0
	for sh := range lists {
		lists[sh] = snap.ShardJobs(sh)
		n += len(lists[sh])
		longest = max(longest, len(lists[sh]))
	}
	units := make([]jobUnit, 0, n)
	for i := 0; i < longest; i++ {
		for sh, jobs := range lists {
			if i < len(jobs) && (filter == nil || filter(jobs[i])) {
				units = append(units, jobUnit{sh, jobs[i]})
			}
		}
	}
	return units
}

// identity is the grouping key of one process across its records: the
// identity columns without TIME.
type identity struct {
	jobID, stepID string
	pid           int
	hash, host    string
}

// identityCollision reports whether two *different* segments of one job
// contain records of the same process identity — the fingerprint of
// misrouted inserts (with hash routing intact, one (job, host) never spans
// shards, and identity includes the host). Duplicates within one segment
// are legitimate PID reuse and don't count.
func identityCollision(segs []jobSegment) bool {
	seen := make(map[identity]int) // identity → index of the segment that saw it
	for si := range segs {
		for _, r := range segs[si].recs {
			k := identity{r.JobID, r.StepID, r.PID, r.ExeHash, r.Host}
			if prev, ok := seen[k]; ok && prev != si {
				return true
			}
			seen[k] = si
		}
	}
	return false
}

// ConsolidateSnapshot consolidates a snapshot via the streaming
// job-parallel path and returns every record sorted by (Time, JobID, PID,
// ExeHash) — the same contract as Consolidate, with peak memory bounded by
// the in-flight jobs plus the output instead of the whole store.
func ConsolidateSnapshot(snap SnapshotView, opts StreamOptions) ([]*ProcessRecord, Stats) {
	var out []*ProcessRecord
	stats := ConsolidateStream(snap, opts, func(j JobRecords) bool {
		out = append(out, j.Records...)
		return true
	})
	SortRecords(out)
	return out, stats
}
