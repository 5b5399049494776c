// Streaming, shard-parallel consolidation — the read-path counterpart of
// the sharded ingest pipeline.
//
// A load-everything pass (every stored message copied into one slice, then
// one global consolidation) materialises that slice, one global reassembly
// map, and one global group map before producing a single record: peak
// memory O(total messages). The streaming path mirrors the store shards
// instead:
//
//	store shard 0 ── cursor ─▶ worker 0 ─┐  per-(shard, job) segments
//	store shard 1 ── cursor ─▶ worker 1 ─┼─▶ fan-in reducer ─▶ yield(job)
//	      …                       …      │   (completes a job once every
//	store shard S ── cursor ─▶ worker S ─┘    shard holding it reported)
//
// Each worker walks its shard's jobs in first-appearance order and
// consolidates one job at a time, so a worker's transient memory is one
// in-flight job (its messages are referenced from the snapshot, not
// copied). Messages of one (job, host) always live in one shard — the store
// partitions by wire.PartitionHash(JobID, Host) — and the consolidation
// grouping key never crosses a job or host, so per-(shard, job) segments
// consolidate to exactly the records a whole-store pass would produce. Jobs
// spanning several hosts can span shards; the reducer holds their segments
// until every shard has reported, then concatenates segments in first-row
// sequence order — each host's stream stays in its insertion order, and
// segments follow the order the job first touched each shard.
package postprocess

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"siren/internal/sirendb"
	"siren/internal/wire"
)

// SnapshotView is the cursor surface the streaming consolidation reads — the
// interface extracted from *sirendb.Snapshot so the same pipeline runs over
// one receiver database or the merged view of N (*sirendb.MergedSnapshot,
// the analysis tier of a partitioned multi-receiver deployment).
//
// The contract the consolidation depends on:
//   - rows of one (job, host) live wholly inside one shard, in insertion
//     order (the store partitions by wire.PartitionHash(JobID, Host));
//   - within a ShardJobRows stream, the subsequence of any one host carries
//     strictly increasing seq values (chunk reassembly order); hosts may be
//     grouped rather than seq-interleaved — a store whose sealed runs sort
//     rows by (job, host) yields host blocks, the mutable head yields pure
//     insertion order — and seqs are globally comparable across shards;
//   - JobShardCounts()[j] equals the number of shard indexes for which
//     ShardJobRows(i, j, …) yields at least one row;
//   - JobRows merges one job's rows across shards preserving each host's
//     insertion order (same per-host guarantee as ShardJobRows).
type SnapshotView interface {
	// Shards reports the number of shard cursors.
	Shards() int
	// ShardJobs returns shard i's distinct job IDs in first-appearance order.
	ShardJobs(i int) []string
	// ShardJobRows streams shard i's rows of one job — per-host insertion
	// order preserved, hosts possibly grouped — with each row's sequence
	// number; return false to stop. Each row is a view of the canonical
	// datagram the store holds, valid while the snapshot is reachable:
	// whatever a consumer keeps of it, it copies.
	ShardJobRows(i int, job string, f func(row *wire.Scanned, seq uint64) bool)
	// ShardJobLen bounds how many rows ShardJobRows(i, job) yields, from
	// indexes alone (no row is read), so a consumer can size its buffer
	// before the stream fills it.
	ShardJobLen(i int, job string) int
	// JobShardCounts maps every job ID to the number of shards holding rows
	// of that job — the fan-in count a per-job reducer waits for.
	JobShardCounts() map[string]int
	// JobRows streams every row of one job, preserving per-host insertion
	// order.
	JobRows(job string, f func(m wire.Message) bool)
	// LastSeq reports the highest sequence number the snapshot contains;
	// every row it yields has seq <= LastSeq. Successive snapshots of a
	// growing store have non-decreasing LastSeq, which makes the value a
	// refresh watermark.
	LastSeq() uint64
	// JobsChangedSince returns the job IDs with at least one row whose
	// sequence number is strictly greater than since, sorted; since=0
	// returns every job. An incremental consumer holding consolidated state
	// as of watermark W re-consolidates exactly JobsChangedSince(W) against
	// the new snapshot — the append-only store guarantees every other job's
	// rows are byte-identical to the previous capture.
	JobsChangedSince(since uint64) []string
}

// Both snapshot flavours satisfy the extracted cursor surface.
var (
	_ SnapshotView = (*sirendb.Snapshot)(nil)
	_ SnapshotView = (*sirendb.MergedSnapshot)(nil)
)

// StreamOptions configure the streaming consolidation.
type StreamOptions struct {
	// Workers bounds the number of concurrent shard workers. 0 (or
	// anything above the snapshot's shard count) means one worker per
	// shard cursor — the shard-mirrored default.
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

// ConsolidateStream consolidates a store snapshot shard-parallel and calls
// yield once per job as the job completes, with that job's records ordered
// as JobRecords documents; return false from yield to stop early. Jobs
// complete in a scheduler-dependent order across workers — callers needing
// the global deterministic order use ConsolidateSnapshot.
//
// Memory stays bounded by the jobs in flight: each worker holds one job's
// messages (referenced from the snapshot) while consolidating it, and the
// reducer holds only record segments of multi-shard jobs still waiting for
// a sibling shard. The returned Stats cover the jobs yielded; after an
// early stop they are partial.
func ConsolidateStream(snap SnapshotView, opts StreamOptions, yield func(JobRecords) bool) Stats {
	workers := opts.Workers
	if workers <= 0 || workers > snap.Shards() {
		workers = snap.Shards()
	}

	segCh := make(chan jobSegment, workers)
	done := make(chan struct{}) // closed on early stop; unblocks worker sends
	var nextShard atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []wire.Scanned // reused across jobs, sized to the largest job segment
			for {
				sh := int(nextShard.Add(1)) - 1
				if sh >= snap.Shards() {
					return
				}
				for _, job := range snap.ShardJobs(sh) {
					if opts.JobFilter != nil && !opts.JobFilter(job) {
						continue
					}
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
					// The rows are views into snap's runs; the records copy
					// out of them, and snap stays reachable until they have.
					recs, nRecords := consolidateRows(buf)
					runtime.KeepAlive(snap)
					select {
					case segCh <- jobSegment{job: job, firstSeq: firstSeq, recs: recs, records: nRecords, messages: len(buf)}:
					case <-done:
						return
					}
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
		segs := append(pending[seg.job], seg)
		if len(segs) < counts[seg.job] {
			pending[seg.job] = segs
			continue
		}
		delete(pending, seg.job)

		// Fan-in: segments merge in first-row sequence order. Rows of one
		// (job, host) normally live within a single segment — the store
		// routes by hash(JobID, Host) — so every host stream survives the
		// merge intact.
		sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
		jr := JobRecords{JobID: seg.job}
		messages, records := 0, 0
		for _, s := range segs {
			messages += s.messages
			records += s.records
		}
		if len(segs) == 1 {
			jr.Records = segs[0].recs
		} else if identityCollision(segs) {
			// Misrouted rows (InsertShard's contract allows them: a batch
			// may land in a shard its messages don't hash to) can split one
			// process identity across segments, which per-segment
			// consolidation would surface as two partial records. Fall back
			// to consolidating this job from the merged cross-shard stream
			// — slower, but exactly what a whole-store pass produces.
			var msgs []wire.Message
			snap.JobRows(seg.job, func(m wire.Message) bool {
				msgs = append(msgs, m)
				return true
			})
			jr.Records, records = consolidateRows(encodeMessages(msgs))
			messages = len(msgs)
		} else {
			n := 0
			for _, s := range segs {
				n += len(s.recs)
			}
			jr.Records = make([]*ProcessRecord, 0, n)
			for _, s := range segs {
				jr.Records = append(jr.Records, s.recs...)
			}
		}

		jr.Messages = messages
		jr.Reassembled = records
		stats.AddJob(jr.Records, messages, records)

		if !yield(jr) {
			stopped = true
			close(done)
		}
	}
	return stats
}

// encodeMessages encodes msgs as the canonical rows a store holds, in one
// buffer the rows are views of.
func encodeMessages(msgs []wire.Message) []wire.Scanned {
	n := 0
	for i := range msgs {
		n += wire.EncodedLen(&msgs[i])
	}
	buf := make([]byte, 0, n)
	rows := make([]wire.Scanned, len(msgs))
	for i := range msgs {
		lo := len(buf)
		buf, rows[i].Fields = wire.AppendEncodeFields(buf, &msgs[i]) // within buf's capacity
		rows[i].Datagram = buf[lo:len(buf):len(buf)]
	}
	return rows
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
// shard-parallel path and returns every record sorted by (Time, JobID, PID,
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
