// Store-level insert benchmarks:
//
//	go test -bench=BenchmarkInsertBatch -benchmem ./internal/sirendb
//
// BenchmarkInsertBatch measures the receiver-shaped workload — concurrent
// writers each flushing batches into their own store shard — against the
// single-mutex shape (shards=1), in memory and with the segmented WAL under
// group commit. One op is one 256-message batch.
package sirendb

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"siren/internal/wire"
)

func benchBatch(job, host string, n int) []wire.Message {
	ms := make([]wire.Message, n)
	for i := range ms {
		ms[i] = wire.Message{
			Header: wire.Header{
				JobID: job, StepID: "0", PID: i, Hash: "abcd", Host: host,
				Time: 1733900000, Layer: wire.LayerSelf, Type: wire.TypeObjects,
				Seq: 0, Total: 1,
			},
			Content: []byte("/lib64/libc.so.6\n/lib64/libm.so.6\n/opt/cray/libmpi.so\n"),
		}
	}
	return ms
}

func benchInsertBatch(b *testing.B, path string, shards, writers int) {
	db, err := OpenOptions(path, Options{Shards: shards, SyncInterval: DefaultSyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const batchLen = 256
	// Each writer owns one store shard, like matched receiver writers; with
	// a single-shard store every writer hits the same mutex.
	batches := make([][]wire.Message, writers)
	for w := range batches {
		batches[w] = benchBatch(fmt.Sprintf("job-%d", w), fmt.Sprintf("nid%06d", w), batchLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			shard := w % shards
			for i := 0; i < n; i++ {
				if err := db.InsertShard(shard, batches[w]); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, per+boolToInt(w < b.N%writers))
	}
	wg.Wait()
	b.StopTimer()
	if db.Count() != b.N*batchLen {
		b.Fatalf("stored %d of %d", db.Count(), b.N*batchLen)
	}
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

func BenchmarkInsertBatch(b *testing.B) {
	for _, backend := range []string{"mem", "wal"} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("store=%s/shards=%d/writers=4", backend, shards), func(b *testing.B) {
				path := ""
				if backend == "wal" {
					path = filepath.Join(b.TempDir(), "bench.wal")
				}
				benchInsertBatch(b, path, shards, 4)
			})
		}
	}
}

// --------------------------------------------------------------------------
// Read path: snapshot scans (EXPERIMENTS.md §4).

// benchReadDB seeds an in-memory sharded store with rows spread over jobs
// and hosts, the shape a campaign leaves behind.
func benchReadDB(b *testing.B, shards, rows int) *DB {
	b.Helper()
	db, err := OpenOptions("", Options{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	const batchLen = 256
	batch := make([]wire.Message, 0, batchLen)
	for i := 0; i < rows; i++ {
		m := benchBatch(fmt.Sprintf("job-%d", i%16), fmt.Sprintf("nid%06d", i%8), 1)[0]
		m.PID = i
		batch = append(batch, m)
		if len(batch) == batchLen || i == rows-1 {
			if err := db.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return db
}

// BenchmarkScanSnapshot measures a whole-store scan on an idle store: a
// brief all-shard lock for the capture, then a lock-free k-way merge.
func BenchmarkScanSnapshot(b *testing.B) {
	const rows = 100_000
	db := benchReadDB(b, 4, rows)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		db.Scan(func(m wire.Message) bool { n++; return true })
		if n != rows {
			b.Fatalf("scanned %d of %d", n, rows)
		}
	}
}

// BenchmarkInsertDuringScan prices what a concurrent reader costs writers:
// a background goroutine scans the store in a loop while the benchmark op
// is one 64-message InsertBatch. The scanner holds shard locks only for the
// O(shards) capture, so inserts should cost what they cost on an idle store.
func BenchmarkInsertDuringScan(b *testing.B) {
	db := benchReadDB(b, 4, 100_000)
	defer db.Close()
	stop := make(chan struct{})
	var scans atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Scan(func(m wire.Message) bool { return true })
			scans.Add(1)
		}
	}()
	batch := benchBatch("job-bench", "nid000099", 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(scans.Load()), "bg-scans")
}

// BenchmarkByJob measures the per-job read: the k-way index merge into one
// exact-size allocation (the old path re-sorted a growing temporary slice
// on every call).
func BenchmarkByJob(b *testing.B) {
	db := benchReadDB(b, 4, 100_000)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(db.ByJob("job-3")); got != 100_000/16 {
			b.Fatalf("ByJob = %d rows", got)
		}
	}
}

// BenchmarkJobs measures the sorted-key listing, now served from the
// per-shard sorted caches after the first call.
func BenchmarkJobs(b *testing.B) {
	db := benchReadDB(b, 4, 100_000)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(db.Jobs()); got != 16 {
			b.Fatalf("Jobs = %d", got)
		}
	}
}
