package sirendb

import (
	"siren/internal/obs"
)

// storeMetrics holds the store's obs instruments. Every store has them
// (OpenOptions registers into a private registry when Options.Metrics is
// nil), so hot paths record unconditionally.
type storeMetrics struct {
	// walAppendNS is the write(2) latency of a WAL segment append, measured
	// under the shard lock — the synchronous disk cost every insert batch
	// pays before acknowledgement.
	walAppendNS *obs.Histogram
	// fsyncNS is the fdatasync latency of a group commit — the durability
	// floor of the store; its p99 bounds how long a commit window can take.
	fsyncNS *obs.Histogram
	// commitBytes is the number of segment bytes made durable per group
	// commit — the batch size the SyncInterval window accumulated. Small
	// values mean the window is too short to amortise the flush.
	commitBytes *obs.Histogram
	// sealNS is total Seal wall time; sealPhaseNS splits it into the four
	// commit-protocol phases so a slow seal points at disk (write-runs,
	// truncate) vs rename (commit) vs in-memory swap (attach).
	sealNS      *obs.Histogram
	sealPhaseNS [4]*obs.Histogram
	// runReadErrs counts lazy run-read failures (block checksum mismatches)
	// discovered while serving the sealed tier; StoreStats.RunReadErrors
	// reads it, so the stats and /metrics cannot disagree.
	runReadErrs *obs.Counter
}

// sealPhases names Seal's four phases in protocol order; the array indexes
// of storeMetrics.sealPhaseNS follow it.
var sealPhases = [4]string{"write-runs", "commit", "truncate", "attach"}

// newStoreMetrics registers db's instruments in r, or in a private registry
// when r is nil: the histograms and counter below, and one siren_store_*
// gauge per StoreStats field that no instrument already counts. Gauges read
// the store they were registered for, so of several stores sharing a
// registry the first one reports them.
func newStoreMetrics(r *obs.Registry, db *DB) storeMetrics {
	if r == nil {
		r = obs.NewRegistry("sirendb")
	}
	for _, g := range []struct {
		name, help string
		v          func(StoreStats) int64
	}{
		{"siren_store_rows", "stored messages (WAL head + sealed runs)", func(s StoreStats) int64 { return int64(s.Rows) }},
		{"siren_store_shards", "store shards", func(s StoreStats) int64 { return int64(s.Shards) }},
		{"siren_store_last_seq", "highest assigned store-wide sequence number", func(s StoreStats) int64 { return int64(s.LastSeq) }},
		{"siren_store_corrupt_records", "WAL records skipped during replay", func(s StoreStats) int64 { return int64(s.CorruptRecords) }},
		{"siren_store_wal_bytes", "bytes appended across all WAL segments", func(s StoreStats) int64 { return s.WALBytes }},
		{"siren_store_wal_synced_bytes", "WAL bytes confirmed durable by fdatasync", func(s StoreStats) int64 { return s.WALSynced }},
		{"siren_store_sync_failed", "1 once a group commit failed and poisoned the store", func(s StoreStats) int64 { return b2i(s.SyncFailed) }},
		{"siren_store_sealed_generation", "highest committed seal generation (0 = never sealed)", func(s StoreStats) int64 { return int64(s.SealedGen) }},
		{"siren_store_sealed_runs", "attached sealed run files", func(s StoreStats) int64 { return int64(s.SealedRuns) }},
		{"siren_store_sealed_rows", "rows living in sealed runs", func(s StoreStats) int64 { return int64(s.SealedRows) }},
		{"siren_store_head_bytes", "WAL-head bytes held in memory (framed records)", func(s StoreStats) int64 { return s.HeadBytes }},
		{"siren_store_sealed_bytes", "bytes across sealed run files", func(s StoreStats) int64 { return s.SealedBytes }},
	} {
		v := g.v
		r.GaugeFunc(g.name, g.help, func() int64 { return v(db.Stats()) })
	}
	m := storeMetrics{
		walAppendNS: r.Histogram("siren_wal_append_ns", "WAL segment append (write syscall) latency"),
		fsyncNS:     r.Histogram("siren_wal_fdatasync_ns", "group-commit fdatasync latency"),
		commitBytes: r.Histogram("siren_wal_commit_bytes", "segment bytes made durable per group commit"),
		sealNS:      r.Histogram("siren_seal_ns", "total Seal wall time"),
		runReadErrs: r.Counter("siren_run_read_errors_total", "sealed-run lazy read failures (block checksum mismatches)"),
	}
	for i, phase := range sealPhases {
		m.sealPhaseNS[i] = r.Histogram("siren_seal_phase_ns", "Seal wall time per commit-protocol phase", obs.L("phase", phase))
	}
	return m
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
