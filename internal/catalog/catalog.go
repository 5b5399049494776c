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
// the streaming pass over just those jobs, merges their sorted records with
// the untouched jobs' records, carried forward in order from the previous
// generation, and publishes the result as a new immutable Generation
// behind an atomic pointer:
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
	// Metrics is the registry the catalog's instruments register in:
	// Refresh wall-time histogram and counters for jobs spliced forward vs
	// re-consolidated (see internal/obs). Nil gets a private registry.
	// Catalogs sharing a registry share its instruments, the refresh count
	// behind Refreshes included.
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

	jobs map[string]postprocess.JobRecords // per-job state the next incremental pass splices from
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
		out = append(out, JobInfo{JobID: id, Processes: len(e.Records), Messages: e.Messages})
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
	// RowsReconsolidated is the distinct chunks those jobs hold
	// (postprocess.Stats.Messages) — the stored rows this pass re-read, on
	// any store without duplicate rows. Against NewRows it is the refresh's
	// read amplification: rows re-read per row gained.
	RowsReconsolidated int
	Carried            int           // jobs spliced forward unchanged
	NoOp               bool          // store unchanged: previous generation kept
	Elapsed            time.Duration // wall time of the pass
	IndexElapsed       time.Duration // part of Elapsed spent deriving the fingerprint index
	IndexBytes         int64         // posting-table bytes of the published generation's index
}

// BuildLine renders the pass's wall time split into its two halves, and the
// index's size, for the start-up line of a serving process: "built in 412ms:
// consolidate 230ms, index 182ms (21.4 MB)" tells an operator which half of
// a cold start they are paying and what the index holds.
func (rs RefreshStats) BuildLine() string {
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	return fmt.Sprintf("built in %s: consolidate %s, index %s (%.1f MB)",
		ms(rs.Elapsed), ms(rs.Elapsed-rs.IndexElapsed), ms(rs.IndexElapsed), float64(rs.IndexBytes)/1e6)
}

// Catalog owns the generation pointer and the refresh loop state.
type Catalog struct {
	source Source

	cur  atomic.Pointer[Generation]
	last atomic.Pointer[RefreshStats]

	refreshMu sync.Mutex // serialises refreshes; never held by queries

	// obs instruments; refreshes also backs Refreshes().
	refreshNS          *obs.Histogram
	indexBuildNS       *obs.Histogram
	carriedTotal       *obs.Counter
	reconsolidated     *obs.Counter
	rowsReconsolidated *obs.Counter
	refreshes          *obs.Counter
}

// New builds a catalog over source. The catalog starts at an empty boot
// generation (Gen 0) so queries are valid immediately; call Refresh to
// publish the first real generation.
func New(source Source, opts Options) *Catalog {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry("siren-catalog")
	}
	c := &Catalog{
		source:             source,
		refreshNS:          reg.Histogram("siren_catalog_refresh_ns", "catalog Refresh wall time per pass (no-ops included)"),
		indexBuildNS:       reg.Histogram("siren_catalog_index_build_ns", "fingerprint-index derivation time per publishing refresh (splice or rebuild)"),
		carriedTotal:       reg.Counter("siren_catalog_jobs_carried_total", "jobs spliced forward unchanged across refreshes"),
		reconsolidated:     reg.Counter("siren_catalog_jobs_reconsolidated_total", "jobs re-consolidated by refreshes"),
		rowsReconsolidated: reg.Counter("siren_catalog_rows_reconsolidated_total", "stored rows re-read by refreshes re-consolidating their jobs"),
		refreshes:          reg.Counter("siren_catalog_refreshes_total", "refresh passes run (no-ops included)"),
	}
	reg.GaugeFunc("siren_catalog_index_bytes", "bytes held by the current generation's fingerprint-index posting tables (gram slots and id rows)",
		func() int64 { return c.Generation().Index.Stats().Bytes })
	reg.GaugeFunc("siren_catalog_chunk_conflicts", "repeated chunks in the current generation whose bytes differ from the copy kept: two senders under one record's header (Stats.ChunkConflicts)",
		func() int64 { return int64(c.Generation().Stats.ChunkConflicts) })
	reg.GaugeFunc("siren_catalog_processes_with_missing", "processes in the current generation with a record that lost chunks in transit (Stats.ProcessesWithMissing)",
		func() int64 { return int64(c.Generation().Stats.ProcessesWithMissing) })
	boot := &Generation{
		Dataset: analysis.NewDataset(nil),
		Index:   analysis.NewFingerprintIndex(nil),
		jobs:    map[string]postprocess.JobRecords{},
	}
	c.cur.Store(boot)
	return c
}

// Generation returns the current published generation. Never nil; the
// returned value is immutable and safe to use across a concurrent Refresh.
func (c *Catalog) Generation() *Generation { return c.cur.Load() }

// Refreshes reports how many refresh passes have run (no-ops included).
func (c *Catalog) Refreshes() uint64 { return uint64(c.refreshes.Value()) }

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
		rs.IndexBytes = prev.Index.Stats().Bytes
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
	jobs := make(map[string]postprocess.JobRecords, len(prev.jobs)+len(changed))
	if since > 0 {
		for id, e := range prev.jobs {
			if _, ok := changedSet[id]; !ok {
				jobs[id] = e
			}
		}
	}
	rs.Carried = len(jobs)
	rs.Reconsolidated = len(changed)

	// Re-consolidate only the changed jobs, streaming and job-parallel.
	var fresh []*postprocess.ProcessRecord
	postprocess.ConsolidateStream(snap, postprocess.StreamOptions{Jobs: changed}, func(j postprocess.JobRecords) bool {
		jobs[j.JobID] = j
		rs.RowsReconsolidated += j.Messages
		fresh = append(fresh, j.Records...)
		return true
	})

	// Assemble the new generation: records in the deterministic whole-store
	// order, stats accumulated over carried and fresh jobs alike. Only the
	// fresh records are sorted; the carried ones are already in order in the
	// previous generation and are merged in (DESIGN.md §8).
	var stats postprocess.Stats
	for _, e := range jobs {
		stats.AddJob(e)
	}
	postprocess.SortRecords(fresh)
	records := fresh
	if rs.Carried > 0 {
		records = mergeRecords(prev.Dataset.Records, changedSet, fresh)
	}

	// Derive the fingerprint index from the previous generation's: unchanged
	// fingerprints keep their parsed digests and base-block postings (carried
	// jobs share their records' strings, so the carry check ends at equal
	// pointers),
	// only new or altered ones are re-indexed (DESIGN.md §9).
	indexStart := time.Now()
	index := analysis.NewFingerprintIndexFrom(prev.Index, records)
	rs.IndexElapsed = time.Since(indexStart)
	rs.IndexBytes = index.Stats().Bytes
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
	c.refreshes.Inc()
	c.last.Store(&rs)
	c.refreshNS.Observe(rs.Elapsed)
	c.carriedTotal.Add(int64(rs.Carried))
	c.reconsolidated.Add(int64(rs.Reconsolidated))
	c.rowsReconsolidated.Add(int64(rs.RowsReconsolidated))
}

// mergeRecords merges fresh (sorted by postprocess.SortRecords) into prev
// (a generation's ordered records), leaving out prev's records of the
// changed jobs — one pass, O(len(prev) + len(fresh)). No two records
// compare equal (postprocess.CompareRecords is a total order), so the result
// is exactly the order SortRecords gives the union: a full pass and a merged
// refresh agree element by element.
func mergeRecords(prev []*postprocess.ProcessRecord, changed map[string]struct{}, fresh []*postprocess.ProcessRecord) []*postprocess.ProcessRecord {
	out := make([]*postprocess.ProcessRecord, 0, len(prev)+len(fresh))
	j := 0
	for _, r := range prev {
		if _, ok := changed[r.JobID]; ok {
			continue
		}
		for j < len(fresh) && postprocess.CompareRecords(fresh[j], r) < 0 {
			out = append(out, fresh[j])
			j++
		}
		out = append(out, r)
	}
	return append(out, fresh[j:]...)
}
