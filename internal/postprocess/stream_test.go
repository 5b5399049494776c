package postprocess

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"siren/internal/membership"
	"siren/internal/sirendb"
	"siren/internal/slurm"
	"siren/internal/wire"
)

// rosterOwner returns, for an n-member roster (r0 … r{n-1}), the member
// that owns a message's (JOBID, HOST) key — the split n receivers sharing
// one campaign admit.
func rosterOwner(t testing.TB, n int) func(wire.Message) int {
	t.Helper()
	ms := make([]membership.Member, n)
	for i := range ms {
		ms[i] = membership.Member{ID: fmt.Sprintf("r%d", i), UDPAddr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	tbl, err := membership.NewTable(ms)
	if err != nil {
		t.Fatal(err)
	}
	return func(m wire.Message) int {
		return tbl.RankedOwners([]byte(m.JobID), []byte(m.Host))[0]
	}
}

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

// allRows reads every row of db through a fresh snapshot, in global
// insertion order (the order an unsealed store's Iter yields).
func allRows(db *sirendb.DB) []wire.Message {
	var out []wire.Message
	db.Snapshot().Iter(func(m wire.Message) bool { out = append(out, m); return true })
	return out
}

// shardJobs returns the jobs shard s of snap holds rows of, in
// first-appearance order.
func shardJobs(snap *sirendb.Snapshot, s int) []string {
	var out []string
	seen := make(map[string]bool)
	c := snap.ShardCursor(s)
	for m, _, ok := c.Next(); ok; m, _, ok = c.Next() {
		if !seen[m.JobID] {
			seen[m.JobID] = true
			out = append(out, m.JobID)
		}
	}
	return out
}

// ConsolidateMessages is the load-everything consolidation — one global
// reassembly and group pass over an explicit message slice, through the
// oracle kernel (kernel_test.go). It is the equality oracle the streaming,
// merged and sealed paths are pinned against.
func ConsolidateMessages(msgs []wire.Message) ([]*ProcessRecord, Stats) {
	var stats Stats
	stats.Messages, stats.ChunkConflicts = chunkCountsOracle(msgs)
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
// and identical stats versus ConsolidateMessages(allRows(db)).
func TestStreamingMatchesLoadEverything(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := synthWorld(t, shards, 11, 7)
			defer db.Close()

			want, wantStats := ConsolidateMessages(allRows(db))
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

	shardsOf := make(map[string]int)
	for s := 0; s < snap.Shards(); s++ {
		for _, job := range shardJobs(snap, s) {
			shardsOf[job]++
		}
	}
	spanning := 0
	for _, n := range shardsOf {
		if n > 1 {
			spanning++
		}
	}
	if spanning == 0 {
		t.Fatal("workload produced no shard-spanning job; the cross-shard merge is untested")
	}

	seen := make(map[string]int)
	stats := ConsolidateStream(snap, StreamOptions{}, func(j JobRecords) bool {
		seen[j.JobID]++
		if len(j.Records) != 6 {
			t.Errorf("job %s yielded %d records, want 6", j.JobID, len(j.Records))
		}
		// The job is read in sequence order: Time (== PID
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

// skewedWorld inserts a store in which shard 0 holds most jobs: nine of
// every ten jobs run on one host that hashes there, the tenth on two hosts
// of other shards, so one worker per shard would leave shard 0's worker
// finishing alone while one job cursor spreads it over every worker.
func skewedWorld(t testing.TB, shards, jobs int) *sirendb.DB {
	t.Helper()
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	hostOn := func(job string, shard, skip int) string {
		for h := skip; ; h++ {
			host := fmt.Sprintf("nid%04d", h)
			if wire.PartitionHash([]byte(job), []byte(host))%uint64(shards) == uint64(shard) {
				return host
			}
		}
	}
	var msgs []wire.Message
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("job-%03d", j)
		hosts := []string{hostOn(job, 0, 0)}
		if j%10 == 9 {
			hosts = []string{hostOn(job, 1+j%(shards-1), 0), hostOn(job, 1+(j+1)%(shards-1), 100)}
		}
		for p, host := range hosts {
			h := wire.Header{
				JobID: job, StepID: "0", PID: 1000 + p, Hash: fmt.Sprintf("%08x", j*10+p), Host: host,
				Time: 1733900000 + int64(j), Layer: wire.LayerSelf,
			}
			h.Type = wire.TypeMetadata
			msgs = append(msgs, wire.Chunk(h, []byte(fmt.Sprintf(
				"EXE=/users/u%d/app\nCATEGORY=user\nPPID=1\nUID=%d\n", j%4, 1000+j%4)), 0)...)
			h.Type = wire.TypeObjects
			msgs = append(msgs, wire.Chunk(h, []byte("/opt/siren/lib/siren.so\n/lib64/libc.so.6\n"), 20)...)
		}
	}
	if err := db.InsertBatch(msgs); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestConsolidateStreamWorkerCap: any worker count, below, at or above the
// shard count, consolidates to exactly the records and stats of the
// load-everything pass — on a campaign-shaped store and on a skewed one
// whose shard 0 holds most jobs (workers pull jobs from one shared cursor).
func TestConsolidateStreamWorkerCap(t *testing.T) {
	for name, db := range map[string]*sirendb.DB{"spread": synthWorld(t, 4, 8, 3), "skewed": skewedWorld(t, 4, 40)} {
		defer db.Close()
		if name == "skewed" {
			snap := db.Snapshot()
			if n := len(shardJobs(snap, 0)); n*10 < len(snap.Jobs())*8 {
				t.Fatalf("test premise broken: shard 0 holds %d of %d jobs", n, len(snap.Jobs()))
			}
		}
		want, wantStats := ConsolidateMessages(allRows(db))
		for _, workers := range []int{1, 2, 8} {
			got, stats := ConsolidateSnapshot(db.Snapshot(), StreamOptions{Workers: workers})
			if stats != wantStats {
				t.Errorf("%s, workers=%d: stats %+v, want %+v", name, workers, stats, wantStats)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, workers=%d: %d records differ from the %d of the load-everything pass", name, workers, len(got), len(want))
			}
		}
	}
}

// TestStreamingToleratesMisroutedInserts: InsertShard's contract lets a
// batch land in a shard its messages don't hash to. When that splits one
// process's chunks across shards, the job is still read whole, so the
// process consolidates to one record, not two partial ones.
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

	want, _ := ConsolidateMessages(allRows(db))
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

	want, wantStats := ConsolidateMessages(allRows(p.db))
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
// splitting one campaign across N member stores by roster ownership of
// (JOBID, HOST) — exactly what N roster members do — and consolidating the merged snapshot produces record-for-record the
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
	owner := rosterOwner(t, members)
	for _, m := range allRows(single) {
		k := owner(m)
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
