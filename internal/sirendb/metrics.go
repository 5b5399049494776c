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

// newStoreMetrics registers the store's instruments in r, or in a private
// registry when r is nil.
func newStoreMetrics(r *obs.Registry) storeMetrics {
	if r == nil {
		r = obs.NewRegistry("sirendb")
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
