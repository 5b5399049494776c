package sirendb

import (
	"testing"

	"siren/internal/wire"
)

// insertAll fails the test on the first insert error.
func insertAll(t *testing.T, db *DB, ms []wire.Message) {
	t.Helper()
	for _, m := range ms {
		if err := db.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
}

// mergedContents collects the merged view's row multiset keyed by content
// string (setMsg makes content unique per row).
func mergedContents(ms *MergedSnapshot) map[string]int {
	out := make(map[string]int)
	ms.Iter(func(m wire.Message) bool {
		out[string(m.Content)]++
		return true
	})
	return out
}

// checkViewConsistency verifies the Snapshot contract the streaming
// consolidator depends on: ShardJobs lists every job a shard yields rows of,
// and Iter and the per-job JobRows streams both yield exactly Count rows.
func checkViewConsistency(t *testing.T, ms *MergedSnapshot) {
	t.Helper()
	for i := 0; i < ms.Shards(); i++ {
		jobsListed := make(map[string]bool)
		for _, j := range ms.ShardJobs(i) {
			jobsListed[j] = true
		}
		for _, job := range ms.Jobs() {
			n := 0
			ms.ShardJobRows(i, job, func(*wire.Scanned, uint64) bool { n++; return true })
			if n > 0 && !jobsListed[job] {
				t.Errorf("shard %d yields rows of %q but ShardJobs omits it", i, job)
			}
		}
	}
	total := 0
	ms.Iter(func(wire.Message) bool { total++; return true })
	if total != ms.Count() {
		t.Errorf("Iter yielded %d rows, Count() = %d", total, ms.Count())
	}
	total = 0
	for _, job := range ms.Jobs() {
		ms.JobRows(job, func(*wire.Scanned, uint64) bool { total++; return true })
	}
	if total != ms.Count() {
		t.Errorf("JobRows yielded %d rows over all jobs, Count() = %d", total, ms.Count())
	}
}

// TestDedupPrefixOverlap is the canonical failover shape: the recovered
// member's WAL holds a strict prefix of the run the new owner holds in
// full. The prefix is suppressed; the merged view equals the full copy.
func TestDedupPrefixOverlap(t *testing.T) {
	owner, _ := Open("")
	recovered, _ := Open("")
	defer owner.Close()
	defer recovered.Close()

	var full []wire.Message
	for i := 0; i < 10; i++ {
		full = append(full, setMsg("J", "h1", 100+i, i))
	}
	insertAll(t, owner, full)
	insertAll(t, recovered, full[:6]) // partial pre-crash ingest

	ms := MergeSnapshots([]*Snapshot{owner.Snapshot(), recovered.Snapshot()})
	if ms.Count() != 16 {
		t.Fatalf("pre-dedup Count = %d, want 16", ms.Count())
	}
	st := ms.DedupOverlaps()
	want := DedupStats{OverlappingKeys: 1, SuppressedRuns: 1, SuppressedRows: 6}
	if st != want {
		t.Fatalf("DedupOverlaps = %+v, want %+v", st, want)
	}
	if ms.Count() != 10 {
		t.Fatalf("post-dedup Count = %d, want 10", ms.Count())
	}
	got := mergedContents(ms)
	if len(got) != 10 {
		t.Fatalf("merged view has %d distinct rows, want 10", len(got))
	}
	for _, m := range full {
		if got[string(m.Content)] != 1 {
			t.Fatalf("row %q appears %d times, want exactly 1", m.Content, got[string(m.Content)])
		}
	}
	if again := ms.DedupOverlaps(); again != st {
		t.Fatalf("second DedupOverlaps = %+v, want idempotent %+v", again, st)
	}
	if ms.DedupStats() != st {
		t.Fatalf("DedupStats = %+v, want %+v", ms.DedupStats(), st)
	}
	checkViewConsistency(t, ms)
}

// TestDedupReorderedSubset: UDP transit can reorder datagrams within one
// (job, host) before storage, so the recovered member's partial copy may
// be a sub-multiset without being a prefix. Still suppressed.
func TestDedupReorderedSubset(t *testing.T) {
	owner, _ := Open("")
	recovered, _ := Open("")
	defer owner.Close()
	defer recovered.Close()

	var full []wire.Message
	for i := 0; i < 8; i++ {
		full = append(full, setMsg("J", "h1", 100+i, i))
	}
	insertAll(t, owner, full)
	// Reordered, gappy subset: rows 5, 1, 6, 2.
	insertAll(t, recovered, []wire.Message{full[5], full[1], full[6], full[2]})

	ms := MergeSnapshots([]*Snapshot{owner.Snapshot(), recovered.Snapshot()})
	st := ms.DedupOverlaps()
	want := DedupStats{OverlappingKeys: 1, SuppressedRuns: 1, SuppressedRows: 4}
	if st != want {
		t.Fatalf("DedupOverlaps = %+v, want %+v", st, want)
	}
	if ms.Count() != 8 {
		t.Fatalf("Count = %d, want 8", ms.Count())
	}
	checkViewConsistency(t, ms)
}

// TestDedupConflictKept: an overlapping run that is NOT contained in the
// canonical run is genuinely different data — it must survive and be
// counted as a conflict, never silently discarded.
func TestDedupConflictKept(t *testing.T) {
	a, _ := Open("")
	b, _ := Open("")
	defer a.Close()
	defer b.Close()

	for i := 0; i < 6; i++ {
		if err := a.Insert(setMsg("J", "h1", 100+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// b shares rows 0-2 but adds rows 100-101 that a never saw.
	insertAll(t, b, []wire.Message{
		setMsg("J", "h1", 100, 0), setMsg("J", "h1", 101, 1), setMsg("J", "h1", 102, 2),
		setMsg("J", "h1", 200, 100), setMsg("J", "h1", 201, 101),
	})

	ms := MergeSnapshots([]*Snapshot{a.Snapshot(), b.Snapshot()})
	st := ms.DedupOverlaps()
	want := DedupStats{OverlappingKeys: 1, Conflicts: 1}
	if st != want {
		t.Fatalf("DedupOverlaps = %+v, want %+v", st, want)
	}
	if ms.Count() != 11 {
		t.Fatalf("Count = %d, want all 11 rows kept", ms.Count())
	}
	checkViewConsistency(t, ms)
}

// TestDedupEqualRuns: two members holding identical copies (the overlap
// window where both old and new owner accepted the whole stream) keep
// exactly one — the earlier member's, by the (JOBID, HOST, first-row seq)
// tiebreak.
func TestDedupEqualRuns(t *testing.T) {
	a, _ := Open("")
	b, _ := Open("")
	defer a.Close()
	defer b.Close()

	var full []wire.Message
	for i := 0; i < 5; i++ {
		full = append(full, setMsg("J", "h1", 100+i, i))
	}
	insertAll(t, a, full)
	insertAll(t, b, full)

	ms := MergeSnapshots([]*Snapshot{a.Snapshot(), b.Snapshot()})
	st := ms.DedupOverlaps()
	want := DedupStats{OverlappingKeys: 1, SuppressedRuns: 1, SuppressedRows: 5}
	if st != want {
		t.Fatalf("DedupOverlaps = %+v, want %+v", st, want)
	}
	if ms.Count() != 5 {
		t.Fatalf("Count = %d, want 5", ms.Count())
	}
	// The survivor is member 0's run: its rows carry the smaller rebased
	// seqs, so every yielded seq must be <= member 0's LastSeq.
	var maxSeq uint64
	for i := 0; i < ms.Shards(); i++ {
		ms.ShardJobRows(i, "J", func(_ *wire.Scanned, seq uint64) bool {
			if seq > maxSeq {
				maxSeq = seq
			}
			return true
		})
	}
	if member0Last := a.Snapshot().LastSeq(); maxSeq > member0Last {
		t.Fatalf("surviving run has seq %d > member 0's range %d: canonical tiebreak picked the later member", maxSeq, member0Last)
	}
	checkViewConsistency(t, ms)
}

// TestDedupMultiHostJob: dedup is per (job, host) — a job whose h1 stream
// was failed over (duplicated) but whose h2 stream stayed clean loses only
// the duplicate h1 run.
func TestDedupMultiHostJob(t *testing.T) {
	owner, _ := Open("")
	recovered, _ := Open("")
	defer owner.Close()
	defer recovered.Close()

	var h1, h2 []wire.Message
	for i := 0; i < 6; i++ {
		h1 = append(h1, setMsg("J", "h1", 100+i, i))
		h2 = append(h2, setMsg("J", "h2", 300+i, i))
	}
	insertAll(t, owner, h1)
	insertAll(t, owner, h2)
	insertAll(t, recovered, h1[:3]) // only the h1 overlap; h2 never moved

	ms := MergeSnapshots([]*Snapshot{owner.Snapshot(), recovered.Snapshot()})
	st := ms.DedupOverlaps()
	want := DedupStats{OverlappingKeys: 1, SuppressedRuns: 1, SuppressedRows: 3}
	if st != want {
		t.Fatalf("DedupOverlaps = %+v, want %+v", st, want)
	}
	if ms.Count() != 12 {
		t.Fatalf("Count = %d, want 12", ms.Count())
	}
	got := mergedContents(ms)
	for _, m := range append(append([]wire.Message{}, h1...), h2...) {
		if got[string(m.Content)] != 1 {
			t.Fatalf("row %q appears %d times, want 1", m.Content, got[string(m.Content)])
		}
	}
	checkViewConsistency(t, ms)
}

// TestDedupNoOverlapIsFree: disjoint members (the static-roster case)
// dedup to nothing and the view is untouched.
func TestDedupNoOverlapIsFree(t *testing.T) {
	a, _ := Open("")
	b, _ := Open("")
	defer a.Close()
	defer b.Close()
	for i := 0; i < 4; i++ {
		if err := a.Insert(setMsg("JA", "h1", 100+i, i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(setMsg("JB", "h2", 200+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	ms := MergeSnapshots([]*Snapshot{a.Snapshot(), b.Snapshot()})
	if st := ms.DedupOverlaps(); st != (DedupStats{}) {
		t.Fatalf("DedupOverlaps on disjoint members = %+v, want zero", st)
	}
	if ms.Count() != 8 {
		t.Fatalf("Count = %d, want 8", ms.Count())
	}
	checkViewConsistency(t, ms)
}

// TestDedupThreeWayOverlap: two recovered partials of one key (a double
// failover) both suppress against the single full copy.
func TestDedupThreeWayOverlap(t *testing.T) {
	fullDB, _ := Open("")
	p1, _ := Open("")
	p2, _ := Open("")
	defer fullDB.Close()
	defer p1.Close()
	defer p2.Close()

	var full []wire.Message
	for i := 0; i < 9; i++ {
		full = append(full, setMsg("J", "h1", 100+i, i))
	}
	insertAll(t, p1, full[:4])
	insertAll(t, fullDB, full)
	insertAll(t, p2, full[2:7])

	ms := MergeSnapshots([]*Snapshot{p1.Snapshot(), fullDB.Snapshot(), p2.Snapshot()})
	st := ms.DedupOverlaps()
	want := DedupStats{OverlappingKeys: 1, SuppressedRuns: 2, SuppressedRows: 9}
	if st != want {
		t.Fatalf("DedupOverlaps = %+v, want %+v", st, want)
	}
	if ms.Count() != 9 {
		t.Fatalf("Count = %d, want 9", ms.Count())
	}
	got := mergedContents(ms)
	for _, m := range full {
		if got[string(m.Content)] != 1 {
			t.Fatalf("row %q appears %d times, want 1", m.Content, got[string(m.Content)])
		}
	}
	checkViewConsistency(t, ms)
}
