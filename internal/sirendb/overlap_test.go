package sirendb_test

import (
	"fmt"
	"reflect"
	"testing"

	"siren/internal/postprocess"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// The merge-back shapes of a failover (DESIGN.md §11): member stores that
// hold some rows twice. The merged snapshot yields every copy; the
// consolidation counts each distinct chunk once, because it keeps one copy
// of each. Each test consolidates the merged members and
// requires what consolidating the rows stored once gives.

// procRow is the METADATA datagram of process pid of job on host, started
// at time offset i; its content names all four, so rows of different
// processes never share bytes.
func procRow(job, host string, pid, i int) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: job, StepID: "0", PID: pid, Hash: "beef", Host: host,
			Time: 1733900000 + int64(i), Layer: wire.LayerSelf, Type: wire.TypeMetadata,
			Seq: 0, Total: 1,
		},
		Content: []byte(fmt.Sprintf("EXE=/bin/x-%s-%s-%d", job, host, i)),
	}
}

// procRows is procRow for i in [0, n), process 100+i each.
func procRows(job, host string, n int) []wire.Message {
	out := make([]wire.Message, n)
	for i := range out {
		out[i] = procRow(job, host, 100+i, i)
	}
	return out
}

// memStore opens an in-memory store holding rows, in order.
func memStore(t *testing.T, rows []wire.Message) *sirendb.DB {
	t.Helper()
	db, err := sirendb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// mergeMembers stores each member's rows in a store of its own and merges
// the stores' snapshots, member 0 first. Every copy is a row of the merged
// view, and the view's streams agree with its Count.
func mergeMembers(t *testing.T, members ...[]wire.Message) *sirendb.Snapshot {
	t.Helper()
	snaps := make([]*sirendb.Snapshot, len(members))
	rows := 0
	for m, ms := range members {
		snaps[m] = memStore(t, ms).Snapshot()
		rows += len(ms)
	}
	sn := sirendb.MergeSnapshots(snaps)
	if sn.Count() != rows {
		t.Fatalf("merged Count = %d, want every copy: %d", sn.Count(), rows)
	}
	iter, jobRows := 0, 0
	sn.Iter(func(wire.Message) bool { iter++; return true })
	for _, job := range sn.Jobs() {
		sn.JobRows(job, func(*wire.Scanned, uint64) bool { jobRows++; return true })
	}
	if iter != rows || jobRows != rows {
		t.Fatalf("Iter yielded %d rows and JobRows %d over all jobs, Count = %d", iter, jobRows, rows)
	}
	return sn
}

// checkStoredOnce requires the consolidation of merged to equal that of a
// single store holding once, records and Stats alike.
func checkStoredOnce(t *testing.T, merged *sirendb.Snapshot, once []wire.Message) {
	t.Helper()
	want, wantStats := postprocess.ConsolidateSnapshot(memStore(t, once).Snapshot(), postprocess.StreamOptions{})
	got, gotStats := postprocess.ConsolidateSnapshot(merged, postprocess.StreamOptions{})
	if gotStats != wantStats {
		t.Errorf("merged members: stats %+v, want %+v (the rows stored once)", gotStats, wantStats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged members: %d records differ from the %d of the rows stored once", len(got), len(want))
	}
	if gotStats.Messages != len(once) || gotStats.ChunkConflicts != 0 {
		t.Errorf("merged members: %d messages and %d conflicts, want %d and 0", gotStats.Messages, gotStats.ChunkConflicts, len(once))
	}
}

// TestDedupPrefixOverlap is the canonical failover shape: the recovered
// member's WAL holds a strict prefix of the run the new owner holds in full.
func TestDedupPrefixOverlap(t *testing.T) {
	full := procRows("J", "h1", 10)
	checkStoredOnce(t, mergeMembers(t, full, full[:6]), full)
}

// TestDedupReorderedSubset: UDP transit can reorder datagrams within one
// (job, host) before storage, so the recovered member's partial copy may be
// a sub-multiset without being a prefix.
func TestDedupReorderedSubset(t *testing.T) {
	full := procRows("J", "h1", 8)
	checkStoredOnce(t, mergeMembers(t, full, []wire.Message{full[5], full[1], full[6], full[2]}), full)
}

// TestDedupConflictKept: a copy whose bytes differ from the row it repeats
// is genuinely different data. The copy with the greater datagram bytes is
// kept, whichever member merges first, and the other is counted as a
// conflict, never silently dropped; rows only the second member holds are
// kept.
func TestDedupConflictKept(t *testing.T) {
	a := procRows("J", "h1", 6)
	other := procRow("J", "h1", 102, 2)
	other.Content = []byte("EXE=/bin/other") // sorts below a's "EXE=/bin/x-J-h1-2"
	b := []wire.Message{a[0], a[1], other, procRow("J", "h1", 200, 100), procRow("J", "h1", 201, 101)}

	recs, st := postprocess.ConsolidateSnapshot(mergeMembers(t, a, b), postprocess.StreamOptions{})
	if st.ChunkConflicts != 1 || st.Messages != 8 || st.Processes != 8 {
		t.Fatalf("stats %+v, want 1 conflict, 8 messages and 8 processes", st)
	}
	exe := make(map[int]string)
	for _, r := range recs {
		exe[r.PID] = r.Exe
	}
	if exe[102] != "/bin/x-J-h1-2" || exe[200] == "" || exe[201] == "" {
		t.Errorf("records by PID %v: want the first member's copy of 102 and the second's 200 and 201", exe)
	}
	swapped, swappedSt := postprocess.ConsolidateSnapshot(mergeMembers(t, b, a), postprocess.StreamOptions{})
	if swappedSt != st || !reflect.DeepEqual(swapped, recs) {
		t.Errorf("merging the second member first changed the records or stats (%+v, want %+v)", swappedSt, st)
	}
}

// TestDedupEqualRuns: two members holding identical copies (the overlap
// window where both old and new owner accepted the whole stream).
func TestDedupEqualRuns(t *testing.T) {
	full := procRows("J", "h1", 5)
	checkStoredOnce(t, mergeMembers(t, full, full), full)
}

// TestDedupMultiHostJob: a job whose h1 stream was failed over (copied
// twice) while its h2 stream stayed clean.
func TestDedupMultiHostJob(t *testing.T) {
	h1, h2 := procRows("J", "h1", 6), procRows("J", "h2", 6)
	once := append(append([]wire.Message{}, h1...), h2...)
	checkStoredOnce(t, mergeMembers(t, once, h1[:3]), once)
}

// TestDedupNoOverlapIsFree: disjoint members (the static-roster case) hold
// nothing twice.
func TestDedupNoOverlapIsFree(t *testing.T) {
	a, b := procRows("JA", "h1", 4), procRows("JB", "h2", 4)
	checkStoredOnce(t, mergeMembers(t, a, b), append(append([]wire.Message{}, a...), b...))
}

// TestDedupThreeWayOverlap: two recovered partials of one key (a double
// failover) beside the single full copy.
func TestDedupThreeWayOverlap(t *testing.T) {
	full := procRows("J", "h1", 9)
	checkStoredOnce(t, mergeMembers(t, full[:4], full, full[2:7]), full)
}
