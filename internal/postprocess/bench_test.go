// Consolidation benchmarks (EXPERIMENTS.md §4/§5):
//
//	go test -bench=BenchmarkConsolidate -benchmem ./internal/postprocess
//
// BenchmarkConsolidate times the streaming, job-parallel path; the
// headline is -benchmem, whose footprint tracks the in-flight jobs, not the
// total message count.
package postprocess

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"siren/internal/sirendb"
	"siren/internal/wire"
)

func BenchmarkConsolidate(b *testing.B) {
	// ~64 jobs × 24 processes × (METADATA + chunked OBJECTS + FILE_H)
	// ≈ 10.7k messages — campaign-shaped, multi-shard, shard-spanning jobs.
	db := synthWorld(b, 4, 64, 24)
	defer db.Close()
	want := 64 * 24

	for _, workers := range []int{0, 1} {
		name := "streaming"
		if workers > 0 {
			name = fmt.Sprintf("streaming-workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recs, _ := ConsolidateSnapshot(db.Snapshot(), StreamOptions{Workers: workers})
				if len(recs) != want {
					b.Fatalf("records = %d, want %d", len(recs), want)
				}
			}
		})
	}
}

// BenchmarkConsolidateCampaign is the consolidation kernel alone on the
// traffic the end-to-end benchmark replays: the seed-1 campaign capture in
// per-job chunks of the canonical rows a store holds, single goroutine, no
// store — what one row costs each time
// its job is consolidated. ns/row is the headline; allocs/op is per pass over
// the whole capture.
func BenchmarkConsolidateCampaign(b *testing.B) {
	if testing.Short() {
		b.Skip("generates the full scale-0.02 campaign capture")
	}
	capture := campaignCapture()
	chunks := rowChunks(jobChunks(capture))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, chunk := range chunks {
			consolidateRows(chunk)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(capture)), "ns/row")
}

// BenchmarkConsolidateSealed is the path a restarted receiver and every
// siren-analyze run take: the campaign capture of BenchmarkConsolidateCampaign
// in a persistent 4-shard store, two thirds of it sealed into two run
// generations and the last third left in the WAL head, reopened read-only and
// consolidated through ConsolidateSnapshot by one worker. Sealed rows are
// scanned in their run blocks on every pass, so ns/row and allocs/op cover
// the run cursors, the sequence merge and the kernel together.
func BenchmarkConsolidateSealed(b *testing.B) {
	if testing.Short() {
		b.Skip("generates the full scale-0.02 campaign capture")
	}
	db, rows := openSealedCapture(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := db.Snapshot()
		if _, stats := ConsolidateSnapshot(snap, StreamOptions{Workers: 1}); stats.Messages != rows || snap.Err() != nil {
			b.Fatalf("consolidated %d of %d rows (%v)", stats.Messages, rows, snap.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkConsolidateSealedParallel is BenchmarkConsolidateSealed at the
// default worker count — one per store shard, four here, bounded in effect
// by GOMAXPROCS — so the gate sees what the job cursor gives siren-analyze
// on every core.
func BenchmarkConsolidateSealedParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("generates the full scale-0.02 campaign capture")
	}
	db, rows := openSealedCapture(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := db.Snapshot()
		if _, stats := ConsolidateSnapshot(snap, StreamOptions{}); stats.Messages != rows || snap.Err() != nil {
			b.Fatalf("consolidated %d of %d rows (%v)", stats.Messages, rows, snap.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// sealedCapture writes the campaign capture into a persistent 4-shard store
// at a fresh path — two thirds sealed into two run generations, the last
// third left in the WAL head — closes it, and returns the path and the row
// count: the store shape a restarted receiver and siren-analyze read.
func sealedCapture(tb testing.TB) (path string, rows int) {
	capture := campaignCapture()
	path = filepath.Join(tb.TempDir(), "siren.wal")
	db, err := sirendb.OpenOptions(path, sirendb.Options{Shards: 4})
	if err != nil {
		tb.Fatal(err)
	}
	third := len(capture) / 3
	for g, part := range [][]wire.Message{capture[:third], capture[third : 2*third], capture[2*third:]} {
		if err := db.InsertBatch(part); err != nil {
			tb.Fatal(err)
		}
		if g < 2 {
			if err := db.Seal(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, len(capture)
}

// openSealedCapture opens a sealedCapture store read-only.
func openSealedCapture(tb testing.TB) (*sirendb.DB, int) {
	path, rows := sealedCapture(tb)
	db, err := sirendb.OpenOptions(path, sirendb.Options{Shards: 4, ReadOnly: true})
	if err != nil {
		tb.Fatal(err)
	}
	return db, rows
}

// samplePeak spawns a 200 µs-period HeapAlloc sampler recording the
// high-water mark into *peak until stop closes — the shared probe of the
// peak-memory benchmarks.
func samplePeak(stop chan struct{}, peak *uint64) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > *peak {
				*peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return &wg
}

// BenchmarkConsolidatePeakMemory pins the acceptance criterion directly:
// peak live heap during consolidation. The streaming consumer aggregates
// per job without retaining records (the Execution-Fingerprint-Dictionary
// shape: repeated whole-campaign group-bys). Reported as "peak-live-MB", the
// high-water mark of HeapAlloc sampled during the pass over a floor levelled
// by runtime.GC.
func BenchmarkConsolidatePeakMemory(b *testing.B) {
	// 256 jobs × 32 processes ≈ 57k messages: big enough that the sampler
	// (200 µs period) catches the footprint shape.
	db := synthWorld(b, 4, 256, 32)
	defer db.Close()

	// Keep HeapAlloc tracking *live* memory: at the default GOGC=100 the
	// heap balloons to 2× live before a collection, burying the retained-set
	// difference under transient garbage.
	defer debug.SetGCPercent(debug.SetGCPercent(10))

	run := func(b *testing.B, pass func() int) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			runtime.GC()
			stop := make(chan struct{})
			wg := samplePeak(stop, &peak)
			if jobs := pass(); jobs != 256 {
				b.Fatalf("consolidated %d jobs", jobs)
			}
			close(stop)
			wg.Wait()
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak-live-MB")
	}

	b.Run("streaming-aggregate", func(b *testing.B) {
		run(b, func() int {
			jobs := 0
			ConsolidateStream(db.Snapshot(), StreamOptions{}, func(j JobRecords) bool {
				jobs++ // aggregate-and-drop: nothing retained per job
				return true
			})
			return jobs
		})
	})
}

// BenchmarkMergedConsolidate measures the multi-receiver merge step: the
// same campaign consolidated from one store versus from M member stores
// (the databases of M roster members) through a merged snapshot.
// The merged path adds only the per-member snapshot captures and the
// (member × shard)-wide cursor table — time and allocations should track
// the single-store streaming path, not the member count times it.
func BenchmarkMergedConsolidate(b *testing.B) {
	single := synthWorld(b, 4, 64, 24)
	defer single.Close()
	want := 64 * 24

	buildMembers := func(members, shards int) []*sirendb.DB {
		dbs := make([]*sirendb.DB, members)
		groups := make([][]wire.Message, members)
		owner := rosterOwner(b, members)
		for _, m := range allRows(single) {
			k := owner(m)
			groups[k] = append(groups[k], m)
		}
		for k := range dbs {
			db, err := sirendb.OpenOptions("", sirendb.Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.InsertBatch(groups[k]); err != nil {
				b.Fatal(err)
			}
			dbs[k] = db
		}
		return dbs
	}

	b.Run("single-store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs, _ := ConsolidateSnapshot(single.Snapshot(), StreamOptions{})
			if len(recs) != want {
				b.Fatalf("records = %d, want %d", len(recs), want)
			}
		}
	})
	for _, members := range []int{2, 4} {
		dbs := buildMembers(members, 2)
		b.Run(fmt.Sprintf("merged-members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snaps := make([]*sirendb.Snapshot, len(dbs))
				for k, db := range dbs {
					snaps[k] = db.Snapshot()
				}
				recs, _ := ConsolidateSnapshot(sirendb.MergeSnapshots(snaps), StreamOptions{})
				if len(recs) != want {
					b.Fatalf("records = %d, want %d", len(recs), want)
				}
			}
		})
		for _, db := range dbs {
			db.Close()
		}
	}
}

// BenchmarkMergedConsolidatePeakMemory pins the merge step's memory bound:
// consolidating M member stores through the merged snapshot must stay
// O(shards × members) — cursors plus in-flight jobs — not O(messages).
func BenchmarkMergedConsolidatePeakMemory(b *testing.B) {
	const members = 3
	// 256 jobs × 32 processes ≈ 57k messages across 3 member stores.
	seedDB := synthWorld(b, 4, 256, 32)
	groups := make([][]wire.Message, members)
	owner := rosterOwner(b, members)
	for _, m := range allRows(seedDB) {
		k := owner(m)
		groups[k] = append(groups[k], m)
	}
	seedDB.Close()
	dbs := make([]*sirendb.DB, members)
	for k := range dbs {
		db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.InsertBatch(groups[k]); err != nil {
			b.Fatal(err)
		}
		dbs[k] = db
		defer db.Close()
	}
	groups = nil

	defer debug.SetGCPercent(debug.SetGCPercent(10))

	run := func(b *testing.B, pass func() int) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			runtime.GC()
			stop := make(chan struct{})
			wg := samplePeak(stop, &peak)
			if jobs := pass(); jobs != 256 {
				b.Fatalf("consolidated %d jobs", jobs)
			}
			close(stop)
			wg.Wait()
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak-live-MB")
	}

	b.Run("merged-streaming-aggregate", func(b *testing.B) {
		run(b, func() int {
			snaps := make([]*sirendb.Snapshot, len(dbs))
			for k, db := range dbs {
				snaps[k] = db.Snapshot()
			}
			jobs := 0
			ConsolidateStream(sirendb.MergeSnapshots(snaps), StreamOptions{}, func(j JobRecords) bool {
				jobs++ // aggregate-and-drop: nothing retained per job
				return true
			})
			return jobs
		})
	})
}
