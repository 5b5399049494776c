// Snapshot-semantics tests: the contracts the streaming read path stands
// on. Run under -race (make test-race / test-replay) — the lock-free reads
// are exactly what the detector would flag if the append-only reasoning
// were wrong.
package sirendb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"siren/internal/wire"
)

func jobMsg(job, host string, pid int, content string) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: job, StepID: "0", PID: pid, Hash: "abcd", Host: host,
			Time: 1733900000, Layer: wire.LayerSelf, Type: wire.TypeMetadata,
			Seq: 0, Total: 1,
		},
		Content: []byte(content),
	}
}

// TestSnapshotStableUnderConcurrentInserts pins the core snapshot contract:
// while writers keep inserting, an Iter over a snapshot terminates (no
// deadlock — no locks are even held), yields exactly the rows present at
// capture time in global insertion order, and never surfaces a row inserted
// after the capture.
func TestSnapshotStableUnderConcurrentInserts(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const preRows = 2000
	for i := 0; i < preRows; i++ {
		if err := db.Insert(jobMsg(fmt.Sprintf("job-%d", i%7), fmt.Sprintf("nid%04d", i%5), i, "pre")); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	if snap.Count() != preRows {
		t.Fatalf("snapshot Count = %d, want %d", snap.Count(), preRows)
	}

	// Writers hammer the store while the snapshot is walked repeatedly.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				db.Insert(jobMsg(fmt.Sprintf("job-%d", i%7), fmt.Sprintf("nid%04d", g), 10000+g*100000+i, "post"))
			}
		}(g)
	}

	for pass := 0; pass < 20; pass++ {
		n := 0
		var lastSeq uint64
		ok := true
		snap.Iter(func(m wire.Message) bool {
			n++
			if string(m.Content) != "pre" {
				ok = false
			}
			return true
		})
		if !ok {
			t.Error("snapshot surfaced a row inserted after capture")
		}
		if n != preRows {
			t.Errorf("snapshot Iter visited %d rows, want %d", n, preRows)
		}
		// Shard cursors: sequence-sorted per shard, all <= LastSeq.
		total := 0
		for s := 0; s < snap.Shards(); s++ {
			c := snap.ShardCursor(s)
			total += c.Len()
			lastSeq = 0
			for {
				_, seq, more := c.Next()
				if !more {
					break
				}
				if seq <= lastSeq {
					t.Fatalf("shard %d cursor not seq-ascending (%d after %d)", s, seq, lastSeq)
				}
				if seq > snap.LastSeq() {
					t.Fatalf("shard %d yielded seq %d past snapshot LastSeq %d", s, seq, snap.LastSeq())
				}
				lastSeq = seq
			}
		}
		if total != preRows {
			t.Errorf("cursors hold %d rows, want %d", total, preRows)
		}
	}
	close(stop)
	wg.Wait()

	// A fresh snapshot sees everything, still consistently.
	snap2 := db.Snapshot()
	if snap2.Count() != db.Count() {
		t.Errorf("fresh snapshot Count = %d, db Count = %d", snap2.Count(), db.Count())
	}
}

// TestInsertInsideScanCallback pins the no-locks-held contract of the
// rewired Scan: inserting from inside the callback must work. Under the old
// full-RLock scan this was a guaranteed deadlock (RLock held while Insert
// waits for the write lock).
func TestInsertInsideScanCallback(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.Insert(jobMsg("j", "h", i, "x"))
	}
	n := 0
	db.Scan(func(m wire.Message) bool {
		n++
		// Mutating the store mid-scan: legal now, and the scan must not
		// surface the row it just inserted.
		if err := db.Insert(jobMsg("j2", "h", 100+n, "mid-scan")); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if n != 10 {
		t.Fatalf("scan visited %d rows, want the 10 pre-scan rows", n)
	}
	if db.Count() != 20 {
		t.Fatalf("Count = %d, want 20", db.Count())
	}
}

// TestSnapshotPerJobOrder checks JobRows/ShardJobRows: per-job streams are
// in insertion order (ascending seq), match ByJob exactly, and jobs created
// after the capture do not exist in the snapshot.
func TestSnapshotPerJobOrder(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One job across several hosts → its rows span shards.
	hosts := []string{"nid0001", "nid0002", "nid0003", "nid0004", "nid0005"}
	for i := 0; i < 500; i++ {
		db.Insert(jobMsg("spanner", hosts[i%len(hosts)], i, fmt.Sprintf("c%d", i)))
		db.Insert(jobMsg(fmt.Sprintf("other-%d", i%3), hosts[i%2], i, "noise"))
	}
	snap := db.Snapshot()
	db.Insert(jobMsg("late-job", "nid0009", 1, "late"))

	var got []string
	snap.JobRows("spanner", func(m wire.Message) bool {
		got = append(got, string(m.Content))
		return true
	})
	want := make([]string, 0, 500)
	for i := 0; i < 500; i++ {
		want = append(want, fmt.Sprintf("c%d", i))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JobRows order diverged from insertion order (got %d rows)", len(got))
	}
	// ByJob (the merged slice API) agrees with the zero-copy stream.
	byJob := db.ByJob("spanner")
	if len(byJob) != 500 {
		t.Fatalf("ByJob = %d rows", len(byJob))
	}
	for i, m := range byJob {
		if string(m.Content) != want[i] {
			t.Fatalf("ByJob[%d] = %q, want %q", i, m.Content, want[i])
		}
	}
	// ByJobFunc: same order and content, early stop honoured.
	var streamed []string
	db.ByJobFunc("spanner", func(m wire.Message) bool {
		streamed = append(streamed, string(m.Content))
		return len(streamed) < 250
	})
	if !reflect.DeepEqual(streamed, want[:250]) {
		t.Fatalf("ByJobFunc diverged from ByJob prefix (got %d rows)", len(streamed))
	}
	// Shard-local segments: seq-ascending, and their union is the job.
	counts := snap.JobShardCounts()
	total, shardsWithJob := 0, 0
	for s := 0; s < snap.Shards(); s++ {
		var lastSeq uint64
		n := 0
		snap.ShardJobRows(s, "spanner", func(m wire.Message, seq uint64) bool {
			if seq <= lastSeq {
				t.Fatalf("shard %d job rows not seq-ascending", s)
			}
			lastSeq = seq
			n++
			return true
		})
		if n > 0 {
			shardsWithJob++
		}
		total += n
	}
	if total != 500 {
		t.Errorf("shard segments sum to %d rows, want 500", total)
	}
	if counts["spanner"] != shardsWithJob {
		t.Errorf("JobShardCounts = %d, observed %d shards", counts["spanner"], shardsWithJob)
	}
	if shardsWithJob < 2 {
		t.Errorf("multi-host job should span shards (got %d); host set too small for the hash?", shardsWithJob)
	}

	// Snapshot job listing: sorted, and blind to post-capture jobs.
	jobs := snap.Jobs()
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1] >= jobs[i] {
			t.Fatalf("snapshot Jobs not sorted: %q >= %q", jobs[i-1], jobs[i])
		}
	}
	for _, j := range jobs {
		if j == "late-job" {
			t.Error("snapshot Jobs surfaced a post-capture job")
		}
	}
	if rows := len(db.ByJob("late-job")); rows != 1 {
		t.Errorf("db sees %d late-job rows, want 1", rows)
	}
}

// TestKeysCacheFreshness: Jobs answers stay correct across inserts that add
// new keys (the sorted-key cache must invalidate), and repeated calls return
// equal results.
func TestKeysCacheFreshness(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Insert(jobMsg("b", "h1", 1, "x"))
	db.Insert(jobMsg("a", "h2", 2, "x"))
	if got := db.Jobs(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Jobs = %q", got)
	}
	if got := db.Jobs(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("cached Jobs = %q", got)
	}
	db.Insert(jobMsg("0-first", "h3", 3, "x"))
	if got := db.Jobs(); !reflect.DeepEqual(got, []string{"0-first", "a", "b"}) {
		t.Fatalf("Jobs after new key = %q", got)
	}
	// Same-key inserts must not invalidate (exercises the fresh-cache path).
	db.Insert(jobMsg("a", "h2", 2, "y"))
	if got := db.Jobs(); !reflect.DeepEqual(got, []string{"0-first", "a", "b"}) {
		t.Fatalf("Jobs after same-key insert = %q", got)
	}
}

// TestStoreStats sanity-checks the telemetry snapshot the expvar endpoint
// serves.
func TestStoreStats(t *testing.T) {
	path := t.TempDir() + "/stats.wal"
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.Insert(jobMsg("j", "h", i, "content"))
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Rows != 10 || st.Shards != 2 || st.LastSeq != 10 {
		t.Errorf("Stats = %+v", st)
	}
	if st.WALBytes == 0 || st.WALSynced != st.WALBytes {
		t.Errorf("WAL accounting: %+v (after Sync, synced must equal written)", st)
	}
	if st.SyncFailed || st.CorruptRecords != 0 {
		t.Errorf("unexpected failure state: %+v", st)
	}
}

// TestScanMatchesBaseline: on an unsealed store Scan yields every row in
// global insertion order, however the rows were spread over shards.
func TestScanMatchesBaseline(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var want, got []string
	for i := 0; i < 1000; i++ {
		c := fmt.Sprintf("c%d", i)
		db.Insert(jobMsg(fmt.Sprintf("j%d", i%13), fmt.Sprintf("h%d", i%7), i, c))
		want = append(want, c)
	}
	db.Scan(func(m wire.Message) bool { got = append(got, string(m.Content)); return true })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot scan diverged from insertion order")
	}
}
