// Sealed-tier equivalence: consolidating a store whose history lives in
// sealed runs (plus a WAL head) must produce the byte-identical report to
// consolidating the same campaign replayed entirely from the WAL — the
// storage tier is invisible to analysis. Single store and merged
// multi-member deployments, mixed seal states included.
package postprocess

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"siren/internal/sirendb"
	"siren/internal/wire"
)

// reportBytes serializes a consolidated report — stats then every record —
// into the byte form the equivalence tests compare. synthWorld gives every
// (job, process) a unique (Time, JobID, PID, ExeHash), so SortRecords'
// order is total and the serialization deterministic.
func reportBytes(recs []*ProcessRecord, stats Stats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "stats %+v\n", stats)
	for _, r := range recs {
		fmt.Fprintf(&buf, "%+v\n", *r)
	}
	return buf.Bytes()
}

// diffReports fails the test with the first diverging line of two reports.
func diffReports(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: report line %d diverged:\ngot  %s\nwant %s", name, i, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: report length diverged: got %d lines, want %d", name, len(gl), len(wl))
}

// TestSealedConsolidationMatchesReplay: one campaign, three storage shapes
// — in-memory, persistent replayed wholly from the WAL, and persistent with
// two sealed generations plus a live head — all consolidate to the same
// bytes.
func TestSealedConsolidationMatchesReplay(t *testing.T) {
	ref := synthWorld(t, 4, 11, 7)
	defer ref.Close()
	msgs := ref.All() // in-memory store: global insertion order
	want := reportBytes(ConsolidateSnapshot(ref.Snapshot(), StreamOptions{}))

	// Replay-the-world: every row rides the WAL through a reopen.
	replayPath := filepath.Join(t.TempDir(), "replay.wal")
	rdb, err := sirendb.OpenOptions(replayPath, sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rdb.InsertBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if err := rdb.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err = sirendb.OpenOptions(replayPath, sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	diffReports(t, "replayed",
		reportBytes(ConsolidateSnapshot(rdb.Snapshot(), StreamOptions{})), want)

	// Sealed: two generations of runs plus an unsealed head, reopened so
	// the runs are served from their files in O(index).
	sealedPath := filepath.Join(t.TempDir(), "sealed.wal")
	sdb, err := sirendb.OpenOptions(sealedPath, sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	third := len(msgs) / 3
	for _, step := range []struct {
		rows []wire.Message
		seal bool
	}{
		{msgs[:third], true},
		{msgs[third : 2*third], true},
		{msgs[2*third:], false},
	} {
		if err := sdb.InsertBatch(step.rows); err != nil {
			t.Fatal(err)
		}
		if step.seal {
			if err := sdb.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Before the reopen: the live post-seal store already serves both tiers.
	diffReports(t, "sealed live",
		reportBytes(ConsolidateSnapshot(sdb.Snapshot(), StreamOptions{})), want)
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	sdb, err = sirendb.OpenOptions(sealedPath, sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if st := sdb.Stats(); st.SealedGen != 2 || st.SealedRows == 0 {
		t.Fatalf("premise broken: store is not sealed: %+v", st)
	}
	diffReports(t, "sealed reopened",
		reportBytes(ConsolidateSnapshot(sdb.Snapshot(), StreamOptions{})), want)

	// The incremental-refresh surface agrees across tiers too.
	refJobs := ref.Snapshot().JobsChangedSince(0)
	sealedJobs := sdb.Snapshot().JobsChangedSince(0)
	if fmt.Sprint(refJobs) != fmt.Sprint(sealedJobs) {
		t.Fatalf("JobsChangedSince diverged: sealed %v, reference %v", sealedJobs, refJobs)
	}
}

// TestSealedMergedConsolidationMatchesSingleStore: a partitioned
// multi-receiver deployment where each member is in a different seal state
// (fully sealed / sealed plus head / never sealed) consolidates through
// MergeSnapshots to the same bytes as the single-store campaign.
func TestSealedMergedConsolidationMatchesSingleStore(t *testing.T) {
	single := synthWorld(t, 4, 11, 7)
	defer single.Close()
	want := reportBytes(ConsolidateSnapshot(single.Snapshot(), StreamOptions{}))

	const members = 3
	groups := make([][]wire.Message, members)
	owner := rosterOwner(t, members)
	for _, m := range single.All() {
		k := owner(m)
		groups[k] = append(groups[k], m)
	}
	snaps := make([]*sirendb.Snapshot, members)
	dir := t.TempDir()
	for k := range groups {
		if len(groups[k]) == 0 {
			t.Fatalf("partition %d/%d empty; grow the corpus", k, members)
		}
		path := filepath.Join(dir, fmt.Sprintf("member-%d.wal", k))
		db, err := sirendb.OpenOptions(path, sirendb.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		switch k {
		case 0: // fully sealed
			if err := db.InsertBatch(groups[k]); err != nil {
				t.Fatal(err)
			}
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
		case 1: // sealed generation plus live head
			half := len(groups[k]) / 2
			if err := db.InsertBatch(groups[k][:half]); err != nil {
				t.Fatal(err)
			}
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := db.InsertBatch(groups[k][half:]); err != nil {
				t.Fatal(err)
			}
		default: // never sealed
			if err := db.InsertBatch(groups[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = sirendb.OpenOptions(path, sirendb.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		snaps[k] = db.Snapshot()
	}

	diffReports(t, "merged mixed-seal",
		reportBytes(ConsolidateSnapshot(sirendb.MergeSnapshots(snaps), StreamOptions{})), want)
}
