// Streaming, job-parallel consolidation — the read-path counterpart of the
// sharded ingest pipeline.
//
// A load-everything pass (every stored message copied into one slice, then
// one global consolidation) materialises that slice, one global reassembly
// map, and one global group map before producing a single record: peak
// memory O(total messages). The streaming path consolidates one job at a
// time instead, and workers pull jobs from one shared cursor:
//
//	Jobs(): j1 j2 j3 …  ─▶ job cursor ─┬─▶ worker 0 ─┐
//	                                   ├─▶ worker 1 ─┼─▶ yield(job)
//	                                   └─▶ worker W ─┘
//
// The consolidation grouping key — JOBID, STEPID, PID, HASH, HOST — never
// crosses a job, so a job's rows are a self-contained input and
// consolidating job by job produces exactly the records a whole-store pass
// would. A worker reads its job through Snapshot.JobRows, which merges the
// job's rows across shards, sealed runs and members in sequence order, so
// no job is ever split and nothing is reassembled after the workers. A
// worker's transient memory is one job's row views (referenced from the
// snapshot, not copied), the kernel's working memory for it, and its
// records; the row buffer and the kernel are reused from job to job.
package postprocess

import (
	"runtime"
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
	// Jobs, when non-nil, restricts the pass to the listed jobs; other jobs
	// are never read. This is how an incremental catalog refresh
	// consolidates only the jobs changed since its watermark instead of the
	// whole store. Nil means every job of the snapshot.
	Jobs []string
}

// JobRecords is one fully consolidated job — the unit the stream yields.
// Records are in identity-group first-appearance order over the job's rows
// in sequence order.
type JobRecords struct {
	JobID   string
	Records []*ProcessRecord
	// Messages is the number of distinct chunks consolidated into this job
	// (Stats.Messages); Reassembled the number of logical records after
	// chunk reassembly; ChunkConflicts the repeated chunks whose bytes
	// differed (Stats.ChunkConflicts). An incremental consumer carrying
	// whole jobs across passes accumulates these into the Stats a fresh
	// full pass would report.
	Messages       int
	Reassembled    int
	ChunkConflicts int
}

// ConsolidateStream consolidates a store snapshot job-parallel and calls
// yield once per job as the job completes; return false from yield to stop
// early. Jobs are handed to the workers in Snapshot.Jobs order (or
// opts.Jobs order) but complete in a scheduler-dependent order — callers
// needing the global deterministic order use ConsolidateSnapshot.
//
// Memory stays bounded by the jobs in flight: each worker holds one job's
// rows (referenced from the snapshot) while consolidating it. The returned
// Stats cover the jobs yielded; after an early stop they are partial.
func ConsolidateStream(snap SnapshotView, opts StreamOptions, yield func(JobRecords) bool) Stats {
	jobs := opts.Jobs
	if jobs == nil {
		jobs = snap.Jobs()
	}
	workers := opts.Workers
	if workers <= 0 || workers > snap.Shards() {
		workers = snap.Shards()
	}

	out := make(chan JobRecords, workers)
	done := make(chan struct{}) // closed on early stop; unblocks worker sends
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []wire.Scanned // reused across jobs, sized to the largest
			var kern kernel        // likewise the kernel's working memory
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				job := jobs[k]
				if n := snap.JobLen(job); n > cap(buf) {
					buf = make([]wire.Scanned, 0, n)
				}
				buf = buf[:0]
				snap.JobRows(job, func(row *wire.Scanned, _ uint64) bool {
					buf = append(buf, *row)
					return true
				})
				// The rows are views into snap's runs; the records copy out
				// of them, and snap stays reachable until they have.
				jr := kern.consolidate(buf)
				runtime.KeepAlive(snap)
				jr.JobID = job
				select {
				case out <- jr:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	var stats Stats
	stopped := false
	for jr := range out {
		if stopped {
			continue // drain until the workers exit
		}
		stats.AddJob(jr)
		if !yield(jr) {
			stopped = true
			close(done)
		}
	}
	return stats
}

// ConsolidateSnapshot consolidates a snapshot via the streaming
// job-parallel path and returns every record sorted by CompareRecords — the
// same contract as Consolidate, with peak memory bounded by
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
