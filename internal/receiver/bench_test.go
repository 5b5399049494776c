// Ingest throughput benchmarks for the sharded receiver across shard counts
// and datagram sizes:
//
//	go test -bench=BenchmarkReceiverIngest -benchmem ./internal/receiver
//
// The benchmark drives the post-socket hot path directly (pooled buffer copy
// → shard dispatch → parse → batch → insert), i.e. everything the UDP reader
// does after ReadFrom returns, so numbers isolate the ingest subsystem from
// kernel scheduling. Messages cycle through 16 jobs so the hash partitioner
// actually spreads load across shards.
package receiver

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"siren/internal/obs"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

func benchDatagrams(payload int) [][]byte {
	const jobs = 16
	dgs := make([][]byte, jobs)
	for i := range dgs {
		m := mkMsg(100+i, wire.TypeObjects)
		m.JobID = fmt.Sprintf("%d", 7000+i)
		m.Content = bytes.Repeat([]byte{'x'}, payload)
		dgs[i] = wire.Encode(m)
	}
	return dgs
}

func benchIngest(b *testing.B, writers, payload int, reg *obs.Registry) {
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: writers})
	if err != nil {
		b.Fatal(err)
	}
	r := New(db, Options{Writers: writers, Depth: 1 << 14, BatchMax: 256, Metrics: reg})
	r.startWriters()
	dgs := benchDatagrams(payload)
	b.SetBytes(int64(len(dgs[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ingest(dgs[i&15], true)
	}
	// Throughput means stored, not queued: wait until every message landed.
	for r.stats.Inserted.Load()+r.stats.Malformed.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	if db.Count() != b.N {
		b.Fatalf("stored %d of %d", db.Count(), b.N)
	}
}

// BenchmarkReceiverIngest drives the post-socket hot path with the store
// sharded 1:1 with the writers, so each writer inserts directly into its own
// store shard (the ShardedStore fast path).
func BenchmarkReceiverIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, payload := range []int{64, 512, 1300} {
			b.Run(fmt.Sprintf("shards=%d/payload=%d", shards, payload), func(b *testing.B) {
				benchIngest(b, shards, payload, nil)
			})
		}
	}
}

// BenchmarkIngestInstrumented is bench-gated alongside BenchmarkReceiverIngest:
// the identical hot path with a full obs registry attached (stage histograms
// stamping every datagram twice, queue-depth gauges, counter bridges), so the
// per-datagram cost of instrumentation itself is regression-gated — the gap
// between this and the uninstrumented run is the telemetry tax.
func BenchmarkIngestInstrumented(b *testing.B) {
	for _, shards := range []int{4} {
		for _, payload := range []int{512} {
			b.Run(fmt.Sprintf("shards=%d/payload=%d", shards, payload), func(b *testing.B) {
				benchIngest(b, shards, payload, obs.NewRegistry("bench"))
			})
		}
	}
}

// BenchmarkReceiverUDP measures the full socket path on loopback, including
// kernel buffering and the SO_RCVBUF tuning.
func BenchmarkReceiverUDP(b *testing.B) {
	db, _ := sirendb.Open("")
	r := New(db, Options{})
	addr, err := r.ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := wire.DialUDP(addr)
	if err != nil {
		b.Fatal(err)
	}
	d := wire.Encode(mkMsg(1, wire.TypeObjects))
	b.SetBytes(int64(len(d)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tr.Send(d) != nil {
		}
	}
	b.StopTimer()
	tr.Close()
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
}
