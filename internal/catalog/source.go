package catalog

import "siren/internal/sirendb"

// StoreSource serves a live single-receiver store: every refresh captures a
// fresh consistent cut while ingest keeps running (snapshot capture is
// O(jobs), and the append-only store makes the cut immutable).
func StoreSource(db *sirendb.DB) Source {
	return db.Snapshot
}

// SetSource serves a finished campaign behind sirendb.OpenSet — one or many
// member databases of a (multi-)receiver deployment, merged, with a
// recovered member's failover copies counted once (DBSet.Snapshot). The set
// holds every member's exclusive lock, so the store is static and the
// rebasing offsets behind the merged watermark never move; refreshes after
// the first are no-ops.
func SetSource(set *sirendb.DBSet) Source {
	return set.Snapshot
}
