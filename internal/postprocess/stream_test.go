package postprocess

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"siren/internal/sirendb"
	"siren/internal/slurm"
	"siren/internal/wire"
)

// synthWorld inserts a deterministic multi-job, multi-host workload into a
// sharded store: procsPerJob processes per job, each with METADATA, a
// chunked OBJECTS list, and FILE_H, interleaved across jobs the way
// concurrent senders interleave. Hosts rotate per process so most jobs span
// several store shards.
func synthWorld(t testing.TB, shards, jobs, procsPerJob int) *sirendb.DB {
	t.Helper()
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []wire.Message
	for p := 0; p < procsPerJob; p++ {
		for j := 0; j < jobs; j++ {
			h := wire.Header{
				JobID: fmt.Sprintf("job-%03d", j), StepID: "0", PID: 1000 + p,
				Hash: fmt.Sprintf("%08x", j*1000+p), Host: fmt.Sprintf("nid%04d", p%5),
				Time: 1733900000 + int64(p), Layer: wire.LayerSelf,
			}
			h.Type = wire.TypeMetadata
			msgs = append(msgs, wire.Chunk(h, []byte(fmt.Sprintf(
				"EXE=/users/u%d/app\nCATEGORY=user\nPPID=1\nUID=%d\n", j%4, 1000+j%4)), 0)...)
			h.Type = wire.TypeObjects
			msgs = append(msgs, wire.Chunk(h, []byte(
				"/opt/siren/lib/siren.so\n/lib64/libc.so.6\n/lib64/libm.so.6\n/opt/cray/libmpi.so\n"), 120)...)
			h.Type = wire.TypeFileH
			msgs = append(msgs, wire.Chunk(h, []byte(fmt.Sprintf("3:aB%dcD:eF%d", j, p)), 0)...)
		}
	}
	if err := db.InsertBatch(msgs); err != nil {
		t.Fatal(err)
	}
	return db
}

// ConsolidateMessages is the load-everything consolidation — one global
// reassembly and group pass over an explicit message slice, through the
// oracle kernel (kernel_test.go). It is the equality oracle the streaming,
// merged and sealed paths are pinned against.
func ConsolidateMessages(msgs []wire.Message) ([]*ProcessRecord, Stats) {
	stats := Stats{Messages: len(msgs)}
	out, nRecords := consolidateChunkOracle(msgs)
	stats.Records = nRecords
	SortRecords(out)
	countRecordStats(&stats, out)
	return out, stats
}

// countRecordStats fills the process- and job-level counters from the final
// record set.
func countRecordStats(stats *Stats, out []*ProcessRecord) {
	jobs := make(map[string]bool)
	jobsMissing := make(map[string]bool)
	for _, p := range out {
		stats.Processes++
		jobs[p.JobID] = true
		if len(p.MissingFields) > 0 {
			stats.ProcessesWithMissing++
			jobsMissing[p.JobID] = true
		}
	}
	stats.Jobs = len(jobs)
	stats.JobsWithMissing = len(jobsMissing)
}

// TestStreamingMatchesLoadEverything pins the equivalence that lets the
// streaming path replace the old one: record-for-record identical output
// and identical stats versus ConsolidateMessages(db.All()).
func TestStreamingMatchesLoadEverything(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := synthWorld(t, shards, 11, 7)
			defer db.Close()

			want, wantStats := ConsolidateMessages(db.All())
			got, gotStats := ConsolidateSnapshot(db.Snapshot(), StreamOptions{})

			if gotStats != wantStats {
				t.Errorf("stats diverged: streaming %+v, baseline %+v", gotStats, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("record count: streaming %d, baseline %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("record %d diverged:\nstreaming %+v\nbaseline  %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestConsolidateStreamPerJob: yield fires exactly once per job with that
// job's complete record set, even when the job's hosts span store shards.
func TestConsolidateStreamPerJob(t *testing.T) {
	db := synthWorld(t, 4, 9, 6)
	defer db.Close()
	snap := db.Snapshot()

	spanning := 0
	for _, n := range snap.JobShardCounts() {
		if n > 1 {
			spanning++
		}
	}
	if spanning == 0 {
		t.Fatal("workload produced no shard-spanning job; the fan-in path is untested")
	}

	seen := make(map[string]int)
	stats := ConsolidateStream(snap, StreamOptions{}, func(j JobRecords) bool {
		seen[j.JobID]++
		if len(j.Records) != 6 {
			t.Errorf("job %s yielded %d records, want 6", j.JobID, len(j.Records))
		}
		// Fan-in preserves insertion order within the job: Time (== PID
		// insertion wave here) never decreases within a host stream, and
		// records of one host must appear in their insertion order.
		lastByHost := make(map[string]int64)
		for _, r := range j.Records {
			if last, ok := lastByHost[r.Host]; ok && r.Time < last {
				t.Errorf("job %s host %s records out of insertion order", j.JobID, r.Host)
			}
			lastByHost[r.Host] = r.Time
		}
		return true
	})
	if len(seen) != 9 {
		t.Fatalf("yield covered %d jobs, want 9", len(seen))
	}
	for job, n := range seen {
		if n != 1 {
			t.Errorf("job %s yielded %d times", job, n)
		}
	}
	if stats.Jobs != 9 || stats.Processes != 9*6 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestConsolidateStreamEarlyStop: returning false from yield terminates the
// stream without deadlocking the workers, and stats stay partial.
func TestConsolidateStreamEarlyStop(t *testing.T) {
	db := synthWorld(t, 4, 20, 4)
	defer db.Close()
	calls := 0
	stats := ConsolidateStream(db.Snapshot(), StreamOptions{}, func(j JobRecords) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("yield called %d times, want 3", calls)
	}
	if stats.Jobs != 3 {
		t.Errorf("partial stats report %d jobs, want 3", stats.Jobs)
	}
}

// TestConsolidateStreamWorkerCap: a worker cap below the shard count still
// consolidates everything (workers pull shards from a shared queue).
func TestConsolidateStreamWorkerCap(t *testing.T) {
	db := synthWorld(t, 4, 8, 3)
	defer db.Close()
	want, _ := ConsolidateMessages(db.All())
	for _, workers := range []int{1, 2, 8} {
		got, _ := ConsolidateSnapshot(db.Snapshot(), StreamOptions{Workers: workers})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(want))
		}
	}
}

// TestStreamingToleratesMisroutedInserts: InsertShard's contract lets a
// batch land in a shard its messages don't hash to. When that splits one
// process's chunks across shards, the fan-in's identity-collision check
// must re-consolidate the job from the merged stream instead of emitting
// two partial records.
func TestStreamingToleratesMisroutedInserts(t *testing.T) {
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	h := wire.Header{
		JobID: "split-job", StepID: "0", PID: 77, Hash: "cafe", Host: "nid0001",
		Time: 1733900000, Layer: wire.LayerSelf,
	}
	h.Type = wire.TypeMetadata
	meta := wire.Chunk(h, []byte("EXE=/users/u/app\nCATEGORY=user\nUID=1001\n"), 0)
	h.Type = wire.TypeObjects
	objs := wire.Chunk(h, []byte("/opt/siren/lib/siren.so\n/lib64/libc.so.6\n"), 0)
	// Deliberately misroute: the two message types of ONE process land in
	// two different shards.
	if err := db.InsertShard(0, meta); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertShard(1, objs); err != nil {
		t.Fatal(err)
	}

	want, _ := ConsolidateMessages(db.All())
	if len(want) != 1 {
		t.Fatalf("baseline produced %d records, want 1", len(want))
	}
	got, stats := ConsolidateSnapshot(db.Snapshot(), StreamOptions{})
	if len(got) != 1 {
		t.Fatalf("streaming produced %d records from a misrouted process, want 1", len(got))
	}
	if !reflect.DeepEqual(got[0], want[0]) {
		t.Fatalf("misrouted record diverged:\nstreaming %+v\nbaseline  %+v", got[0], want[0])
	}
	if stats.Messages != 2 || stats.Processes != 1 || stats.Jobs != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestConsolidateEmptyStore: the streaming path degrades cleanly.
func TestConsolidateEmptyStore(t *testing.T) {
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs, stats := Consolidate(db)
	if len(recs) != 0 || stats != (Stats{}) {
		t.Fatalf("recs=%d stats=%+v", len(recs), stats)
	}
}

// TestStreamingEndToEndPipeline runs the real collector pipeline (the same
// fixture the legacy tests use) and checks the streaming path through
// Consolidate agrees with the explicit-slice baseline.
func TestStreamingEndToEndPipeline(t *testing.T) {
	p := newPipeline(t)
	for i := 0; i < 4; i++ {
		opts := slurm.ExecOptions{PPID: 1, UID: uint32(1005 + i), Env: slurmEnv(fmt.Sprint(i))}
		if _, err := p.rt.Run("/users/u/solver", opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.finish()

	want, wantStats := ConsolidateMessages(p.db.All())
	got, gotStats := Consolidate(p.db)
	if gotStats != wantStats {
		t.Errorf("stats diverged: %+v vs %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("records: %d vs %d", len(got), len(want))
	}
	// Records may tie on the sort key (same second); compare as multisets
	// of executable identity.
	key := func(r *ProcessRecord) string {
		return fmt.Sprintf("%s|%s|%d|%s|%s|%d|%s", r.JobID, r.StepID, r.PID, r.ExeHash, r.Host, r.Time, r.Exe)
	}
	a, b := make([]string, 0, len(got)), make([]string, 0, len(want))
	for i := range got {
		a, b = append(a, key(got[i])), append(b, key(want[i]))
	}
	sort.Strings(a)
	sort.Strings(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("record identity multiset diverged")
	}
}

// TestMergedSnapshotMatchesSingleStore pins the multi-receiver equivalence:
// partitioning one campaign across N member stores by
// wire.PartitionHash(JOBID, HOST) — exactly what N -partition k/N receivers
// do — and consolidating the merged snapshot produces record-for-record the
// same output and stats as consolidating the union from one store.
func TestMergedSnapshotMatchesSingleStore(t *testing.T) {
	single := synthWorld(t, 4, 11, 7)
	defer single.Close()

	const members = 3
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
	for _, m := range single.All() {
		k := wire.PartitionIndex([]byte(m.JobID), []byte(m.Host), members)
		groups[k] = append(groups[k], m)
	}
	snaps := make([]*sirendb.Snapshot, members)
	for k, db := range dbs {
		if len(groups[k]) == 0 {
			t.Fatalf("partition %d/%d empty; grow the corpus", k, members)
		}
		if err := db.InsertBatch(groups[k]); err != nil {
			t.Fatal(err)
		}
		snaps[k] = db.Snapshot()
	}

	want, wantStats := ConsolidateSnapshot(single.Snapshot(), StreamOptions{})
	got, gotStats := ConsolidateSnapshot(sirendb.MergeSnapshots(snaps), StreamOptions{})

	if gotStats != wantStats {
		t.Errorf("stats diverged: merged %+v, single %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("record count: merged %d, single %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d diverged:\nmerged %+v\nsingle %+v", i, got[i], want[i])
		}
	}
}
