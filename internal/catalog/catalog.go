// Package catalog maintains the online recognition catalog: consolidated
// process records plus the labelled fingerprint index the identify endpoint
// ranks against, refreshed incrementally from store snapshots while ingest
// is running.
//
// The design exploits two properties the storage tier already guarantees.
// First, a snapshot is a consistent cut of an append-only store, so the rows
// of any job untouched since sequence number W are byte-identical between a
// snapshot at watermark W and every later snapshot. Second, per-shard job
// indexes are sequence-sorted, so "which jobs gained rows after W" is an
// O(shards × jobs) index probe (SnapshotView.JobsChangedSince), never a row
// scan. A refresh therefore re-consolidates only the changed jobs through
// the job-filtered streaming pass, splices the untouched jobs' records
// forward from the previous generation, and publishes the result as a new
// immutable Generation behind an atomic pointer:
//
//	ingest ──▶ store ──▶ Snapshot ──▶ changed jobs ──▶ consolidate ─┐
//	                         │            (delta)                   ▼
//	queries ◀── atomic ptr ◀─┴──────────── carried jobs ──────── Generation
//
// Queries load the pointer once and read an immutable generation for their
// whole lifetime: they never block on a refresh, never see a half-built
// catalog, and two reads within one request are mutually consistent. The
// consistency contract is exactly the snapshot's: a generation reflects
// every row with seq <= Generation.LastSeq and nothing newer.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/analysis"
	"siren/internal/obs"
	"siren/internal/postprocess"
)

// Source captures a point-in-time snapshot view of the store(s) behind the
// catalog. Successive captures must observe a non-shrinking store with
// stable shard/member layout — true for a live *sirendb.DB (append-only
// after open) and for a *sirendb.DBSet (exclusively locked, so fully
// static). See StoreSource and SetSource in the sirendb bindings below.
type Source func() postprocess.SnapshotView

// Options tune the catalog.
type Options struct {
	// Workers bounds the streaming-consolidation workers per refresh pass
	// (0 = one per shard cursor, the shard-mirrored default).
	Workers int
	// Metrics, when non-nil, registers the catalog's instruments there:
	// Refresh wall-time histogram and counters for jobs spliced forward vs
	// re-consolidated (see internal/obs). Nil leaves Refresh uninstrumented.
	Metrics *obs.Registry
}

// Generation is one immutable published state of the catalog. All fields
// are read-only after publication; a query holding a *Generation may use it
// for arbitrarily long after newer generations supersede it.
type Generation struct {
	// Gen is the generation counter, 1 for the first refresh. The boot
	// generation (before any refresh) is 0 and empty.
	Gen uint64
	// LastSeq is the store watermark: the generation reflects every stored
	// row with seq <= LastSeq and nothing newer.
	LastSeq uint64
	// Dataset wraps the consolidated records — every offline analysis
	// (tables, clusters, report) runs unchanged against it.
	Dataset *analysis.Dataset
	// Stats is the consolidation summary a fresh full pass over the same
	// rows would report (carried jobs included).
	Stats postprocess.Stats
	// Index is the labelled fingerprint index the identify endpoint
	// queries, deduplicated by FILE_H.
	Index *analysis.FingerprintIndex

	jobs map[string]jobEntry // per-job state the next incremental pass splices from
}

// jobEntry is one job's consolidated contribution to a generation.
type jobEntry struct {
	records  []*postprocess.ProcessRecord
	messages int // stored wire messages consolidated into the job
	logical  int // reassembled logical records
}

// JobInfo summarises one job of a generation.
type JobInfo struct {
	JobID     string
	Processes int
	Messages  int
}

// Jobs lists the generation's jobs sorted by JobID.
func (g *Generation) Jobs() []JobInfo {
	out := make([]JobInfo, 0, len(g.jobs))
	for id, e := range g.jobs {
		out = append(out, JobInfo{JobID: id, Processes: len(e.records), Messages: e.messages})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// RefreshStats describe one refresh pass.
type RefreshStats struct {
	Gen            uint64 // generation published by this pass
	LastSeq        uint64 // watermark of the published generation
	NewRows        uint64 // sequence numbers gained since the previous generation
	Jobs           int    // total jobs in the published generation
	Reconsolidated int    // jobs re-consolidated by this pass
	// RowsReconsolidated is the stored rows those jobs hold — every one of
	// them re-read by this pass. Against NewRows it is the refresh's read
	// amplification: rows re-read per row gained.
	RowsReconsolidated int
	Carried            int           // jobs spliced forward unchanged
	NoOp               bool          // store unchanged: previous generation kept
	Elapsed            time.Duration // wall time of the pass
	IndexElapsed       time.Duration // part of Elapsed spent deriving the fingerprint index
}

// BuildLine renders the pass's wall time split into its two halves, for the
// start-up line of a serving process: "built in 412ms: consolidate 230ms,
// index 182ms" tells an operator which half of a cold start they are paying.
func (rs RefreshStats) BuildLine() string {
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	return fmt.Sprintf("built in %s: consolidate %s, index %s",
		ms(rs.Elapsed), ms(rs.Elapsed-rs.IndexElapsed), ms(rs.IndexElapsed))
}

// Catalog owns the generation pointer and the refresh loop state.
type Catalog struct {
	source Source
	opts   Options

	cur       atomic.Pointer[Generation]
	last      atomic.Pointer[RefreshStats]
	refreshes atomic.Uint64

	refreshMu sync.Mutex // serialises refreshes; never held by queries

	// obs instruments (nil when Options.Metrics is nil; all nil-safe).
	refreshNS          *obs.Histogram
	indexBuildNS       *obs.Histogram
	carriedTotal       *obs.Counter
	reconsolidated     *obs.Counter
	rowsReconsolidated *obs.Counter
	refreshesCt        *obs.Counter
}

// New builds a catalog over source. The catalog starts at an empty boot
// generation (Gen 0) so queries are valid immediately; call Refresh to
// publish the first real generation.
func New(source Source, opts Options) *Catalog {
	c := &Catalog{source: source, opts: opts}
	if reg := opts.Metrics; reg != nil {
		c.refreshNS = reg.Histogram("siren_catalog_refresh_ns", "catalog Refresh wall time per pass (no-ops included)")
		c.indexBuildNS = reg.Histogram("siren_catalog_index_build_ns", "fingerprint-index derivation time per publishing refresh (splice or rebuild)")
		c.carriedTotal = reg.Counter("siren_catalog_jobs_carried_total", "jobs spliced forward unchanged across refreshes")
		c.reconsolidated = reg.Counter("siren_catalog_jobs_reconsolidated_total", "jobs re-consolidated by refreshes")
		c.rowsReconsolidated = reg.Counter("siren_catalog_rows_reconsolidated_total", "stored rows re-read by refreshes re-consolidating their jobs")
		c.refreshesCt = reg.Counter("siren_catalog_refreshes_total", "refresh passes run (no-ops included)")
	}
	boot := &Generation{
		Dataset: analysis.NewDataset(nil),
		Index:   analysis.NewFingerprintIndex(nil),
		jobs:    map[string]jobEntry{},
	}
	c.cur.Store(boot)
	return c
}

// Generation returns the current published generation. Never nil; the
// returned value is immutable and safe to use across a concurrent Refresh.
func (c *Catalog) Generation() *Generation { return c.cur.Load() }

// Refreshes reports how many refresh passes have run (no-ops included).
func (c *Catalog) Refreshes() uint64 { return c.refreshes.Load() }

// LastRefresh returns the stats of the most recent refresh pass, or false
// before the first.
func (c *Catalog) LastRefresh() (RefreshStats, bool) {
	if rs := c.last.Load(); rs != nil {
		return *rs, true
	}
	return RefreshStats{}, false
}

// Refresh captures a fresh snapshot and publishes a generation reflecting
// it. Cost is proportional to the rows gained since the previous generation
// — jobs without new rows are spliced forward, not re-read. Concurrent
// Refresh calls serialise; queries are never blocked. Returns the stats of
// the pass (NoOp set when the store had no new rows and the previous
// generation was kept).
func (c *Catalog) Refresh() RefreshStats {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	start := time.Now()

	prev := c.cur.Load()
	snap := c.source()
	rs := RefreshStats{Gen: prev.Gen, LastSeq: prev.LastSeq}
	if snap.LastSeq() == prev.LastSeq && prev.Gen > 0 {
		// Nothing new: keep the published generation. Gen does not advance,
		// so pollers can cheaply detect "no change".
		rs.NoOp = true
		rs.Jobs = len(prev.jobs)
		rs.Carried = len(prev.jobs)
		rs.Elapsed = time.Since(start)
		c.finish(rs)
		return rs
	}

	// The watermark is only meaningful against a store that grew in place.
	// A snapshot that moved backwards (a source swapped under the catalog)
	// falls back to a full rebuild from watermark zero.
	since := prev.LastSeq
	if snap.LastSeq() < since {
		since = 0
	}

	changed := snap.JobsChangedSince(since)
	changedSet := make(map[string]struct{}, len(changed))
	for _, job := range changed {
		changedSet[job] = struct{}{}
	}

	// Carry every untouched job forward: its rows are byte-identical in the
	// new snapshot, so its consolidated records (immutable, shared across
	// generations) are too.
	jobs := make(map[string]jobEntry, len(prev.jobs)+len(changed))
	if since > 0 {
		for id, e := range prev.jobs {
			if _, ok := changedSet[id]; !ok {
				jobs[id] = e
			}
		}
	}
	rs.Carried = len(jobs)
	rs.Reconsolidated = len(changed)

	// Re-consolidate only the changed jobs, streaming and shard-parallel.
	postprocess.ConsolidateStream(snap, postprocess.StreamOptions{
		Workers: c.opts.Workers,
		JobFilter: func(job string) bool {
			_, ok := changedSet[job]
			return ok
		},
	}, func(j postprocess.JobRecords) bool {
		jobs[j.JobID] = jobEntry{records: j.Records, messages: j.Messages, logical: j.Reassembled}
		rs.RowsReconsolidated += j.Messages
		return true
	})

	// Assemble the new generation: records in the deterministic whole-store
	// order, stats accumulated over carried and fresh jobs alike.
	var stats postprocess.Stats
	total := 0
	for _, e := range jobs {
		total += len(e.records)
	}
	records := make([]*postprocess.ProcessRecord, 0, total)
	for _, e := range jobs {
		stats.AddJob(e.records, e.messages, e.logical)
		records = append(records, e.records...)
	}
	postprocess.SortRecords(records)

	// Derive the fingerprint index from the previous generation's: unchanged
	// fingerprints keep their parsed digests and base-block postings (carried
	// jobs share record pointers, so the carry check is a pointer compare),
	// only new or altered ones are re-indexed (DESIGN.md §9).
	indexStart := time.Now()
	index := analysis.NewFingerprintIndexFrom(prev.Index, records)
	rs.IndexElapsed = time.Since(indexStart)
	c.indexBuildNS.Observe(rs.IndexElapsed)

	gen := &Generation{
		Gen:     prev.Gen + 1,
		LastSeq: snap.LastSeq(),
		Dataset: analysis.NewDataset(records),
		Stats:   stats,
		Index:   index,
		jobs:    jobs,
	}
	c.cur.Store(gen)

	rs.Gen = gen.Gen
	rs.LastSeq = gen.LastSeq
	rs.NewRows = gen.LastSeq - since
	rs.Jobs = len(jobs)
	rs.Elapsed = time.Since(start)
	c.finish(rs)
	return rs
}

func (c *Catalog) finish(rs RefreshStats) {
	c.refreshes.Add(1)
	c.last.Store(&rs)
	c.refreshNS.Observe(rs.Elapsed)
	c.carriedTotal.Add(int64(rs.Carried))
	c.reconsolidated.Add(int64(rs.Reconsolidated))
	c.rowsReconsolidated.Add(int64(rs.RowsReconsolidated))
	c.refreshesCt.Inc()
}
