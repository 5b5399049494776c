package postprocess

import (
	"reflect"
	"testing"

	"siren/internal/sirendb"
	"siren/internal/wire"
)

// TestDedupedFailoverMergeMatchesSingleStore pins the merge-back contract of
// DESIGN.md §11 at the consolidation layer: simulate a mid-campaign death —
// member 1's keys were replayed in full to member 2 (the new rendezvous
// owner) while member 1's recovered WAL still holds partial copies — then
// dedup the merged snapshot and consolidate. The output must be
// record-for-record identical to consolidating the never-partitioned single
// store: the overlap window adds nothing and loses nothing.
func TestDedupedFailoverMergeMatchesSingleStore(t *testing.T) {
	single := synthWorld(t, 4, 11, 7)
	defer single.Close()

	const members = 3
	const dead = 1 // member whose keys failed over to member 2
	dbs := make([]*sirendb.DB, members)
	for k := range dbs {
		db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		dbs[k] = db
		defer db.Close()
	}

	groups := make([][]wire.Message, members)
	deadRuns := make(map[[2]string][]wire.Message) // (job, host) -> full run
	owner := rosterOwner(t, members)
	for _, m := range single.All() {
		k := owner(m)
		if k == dead {
			key := [2]string{m.JobID, m.Host}
			deadRuns[key] = append(deadRuns[key], m)
			continue
		}
		groups[k] = append(groups[k], m)
	}
	if len(deadRuns) == 0 {
		t.Fatal("no keys owned by the dead member; grow the corpus")
	}
	// The new owner (member 2) holds every dead-member key in full (the
	// journal replay); the dead member's recovered WAL holds a partial
	// prefix of each run (the rows it ingested before SIGKILL).
	for _, run := range deadRuns {
		groups[2] = append(groups[2], run...)
		groups[dead] = append(groups[dead], run[:len(run)/2]...)
	}

	snaps := make([]*sirendb.Snapshot, members)
	for k, db := range dbs {
		if len(groups[k]) == 0 {
			t.Fatalf("member %d empty; grow the corpus", k)
		}
		if err := db.InsertBatch(groups[k]); err != nil {
			t.Fatal(err)
		}
		snaps[k] = db.Snapshot()
	}

	merged := sirendb.MergeSnapshots(snaps)
	preDedup := merged.Count()
	st := merged.DedupOverlaps()
	if st.OverlappingKeys == 0 || st.SuppressedRuns == 0 {
		t.Fatalf("dedup found nothing to do: %+v", st)
	}
	if st.Conflicts != 0 {
		t.Fatalf("pure-failover overlap produced conflicts: %+v", st)
	}
	if merged.Count() != single.Count() {
		t.Fatalf("deduped merged Count = %d, want %d (single store); pre-dedup %d",
			merged.Count(), single.Count(), preDedup)
	}

	want, wantStats := ConsolidateSnapshot(single.Snapshot(), StreamOptions{})
	got, gotStats := ConsolidateSnapshot(merged, StreamOptions{})
	if gotStats != wantStats {
		t.Errorf("stats diverged: deduped merged %+v, single %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("record count: deduped merged %d, single %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d diverged:\nmerged %+v\nsingle %+v", i, got[i], want[i])
		}
	}
}
