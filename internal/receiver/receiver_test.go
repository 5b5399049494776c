package receiver

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"siren/internal/sirendb"
	"siren/internal/wire"
)

func mkMsg(pid int, typ string) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: "77", StepID: "0", PID: pid, Hash: "beef", Host: "nid001001",
			Time: 1733900000, Layer: wire.LayerSelf, Type: typ, Seq: 0, Total: 1,
		},
		Content: []byte("payload"),
	}
}

func TestUDPEndToEnd(t *testing.T) {
	db, _ := sirendb.Open("")
	r := New(db, Options{})
	addr, err := r.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wire.DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Send(wire.Encode(mkMsg(i, wire.TypeMetadata))); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()
	// UDP delivery on loopback is fast but asynchronous; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for db.Count() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Count(); got != n {
		t.Errorf("stored %d messages, want %d (loopback should not drop)", got, n)
	}
	if r.Stats().Malformed.Load() != 0 {
		t.Error("unexpected malformed datagrams")
	}
}

func TestChannelModeAndBatching(t *testing.T) {
	db, _ := sirendb.Open("")
	r := New(db, Options{Depth: 1024, BatchMax: 16})
	src := wire.NewChanTransport(1 << 16)
	r.AttachChannel(src.C())
	const n = 2000
	for i := 0; i < n; i++ {
		if err := src.Send(wire.Encode(mkMsg(i, wire.TypeObjects))); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Count() != n {
		t.Errorf("stored %d, want %d", db.Count(), n)
	}
	if r.Stats().Inserted.Load() != n {
		t.Errorf("Inserted = %d", r.Stats().Inserted.Load())
	}
}

func TestMalformedDatagramsDropped(t *testing.T) {
	db, _ := sirendb.Open("")
	r := New(db, Options{})
	src := wire.NewChanTransport(64)
	r.AttachChannel(src.C())
	src.Send([]byte("garbage"))
	src.Send(wire.Encode(mkMsg(1, wire.TypeMetadata)))
	src.Send([]byte("SIREN1|also garbage"))
	src.Close()
	r.Close()
	if db.Count() != 1 {
		t.Errorf("stored %d, want 1", db.Count())
	}
	if r.Stats().Malformed.Load() != 2 {
		t.Errorf("Malformed = %d, want 2", r.Stats().Malformed.Load())
	}
}

func TestLossyTransportMissingFields(t *testing.T) {
	// Reproduces the paper's observation: with a small UDP loss rate, a
	// small fraction of processes end up with missing fields, and the rest
	// of the pipeline keeps working.
	db, _ := sirendb.Open("")
	r := New(db, Options{})
	src := wire.NewChanTransport(1 << 18)
	lossy := wire.NewLossyTransport(src, 0.001, 99) // 0.1% datagram loss
	r.AttachChannel(src.C())

	const procs = 2000
	perProc := []string{wire.TypeMetadata, wire.TypeObjects, wire.TypeFileH}
	for p := 0; p < procs; p++ {
		for _, typ := range perProc {
			m := mkMsg(p, typ)
			m.Hash = fmt.Sprintf("%032x", p)
			lossy.Send(wire.Encode(m))
		}
	}
	src.Close()
	r.Close()

	// Count processes with missing fields.
	byProc := make(map[string]int) // keyed by HASH, unique per process above
	db.Scan(func(m wire.Message) bool {
		byProc[m.Hash]++
		return true
	})
	missing := 0
	for _, n := range byProc {
		if n < len(perProc) {
			missing++
		}
	}
	total := procs * len(perProc)
	lost := total - int(db.Count())
	if lost == 0 {
		t.Skip("loss injection produced no losses at this seed")
	}
	if missing == 0 {
		t.Error("expected some processes with missing fields")
	}
	frac := float64(missing) / procs
	if frac > 0.02 {
		t.Errorf("missing-field fraction %.4f implausibly high for 0.1%% loss", frac)
	}
	t.Logf("datagrams lost: %d/%d, processes with missing fields: %d/%d (%.3f%%)",
		lost, total, missing, procs, 100*frac)
}

func TestCloseIsIdempotentAndFlushes(t *testing.T) {
	db, _ := sirendb.Open("")
	r := New(db, Options{BatchMax: 1000})
	src := wire.NewChanTransport(64)
	r.AttachChannel(src.C())
	src.Send(wire.Encode(mkMsg(1, wire.TypeMetadata)))
	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 1 {
		t.Error("partial batch not flushed on close")
	}
}

// blockingStore blocks every InsertBatch until released, to back writers up
// deterministically.
type blockingStore struct {
	gate     chan struct{}
	inserted atomic.Int64
}

func (s *blockingStore) InsertBatch(ms []wire.Message) error {
	<-s.gate
	s.inserted.Add(int64(len(ms)))
	return nil
}

// failingStore rejects every InsertBatch.
type failingStore struct{}

func (failingStore) InsertBatch(ms []wire.Message) error {
	return fmt.Errorf("injected insert failure")
}

func TestChannelFullDropsAreCounted(t *testing.T) {
	store := &blockingStore{gate: make(chan struct{})}
	r := New(store, Options{Depth: 4, BatchMax: 1, Writers: 1})
	r.startWriters()

	// With the writer stalled inside its first InsertBatch (BatchMax 1), the
	// single shard accepts at most the batched message plus Depth queued
	// packets; everything beyond that must be counted as dropped, exactly
	// like a kernel socket-buffer overflow.
	const n = 32
	d := wire.Encode(mkMsg(1, wire.TypeMetadata))
	for i := 0; i < n; i++ {
		r.ingest(d, false)
	}
	if got := r.Stats().Dropped.Load(); got < n-8 {
		t.Fatalf("Dropped = %d, want >= %d with a stalled writer and depth 4", got, n-8)
	}
	close(store.gate) // release the writer
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	total := store.inserted.Load() + r.Stats().Dropped.Load() + r.Stats().Malformed.Load()
	if total != r.Stats().Received.Load() {
		t.Errorf("inserted %d + dropped %d + malformed %d != received %d",
			store.inserted.Load(), r.Stats().Dropped.Load(),
			r.Stats().Malformed.Load(), r.Stats().Received.Load())
	}
}

func TestInsertBatchFailuresAreCounted(t *testing.T) {
	r := New(failingStore{}, Options{BatchMax: 8, Writers: 2})
	src := wire.NewChanTransport(256)
	r.AttachChannel(src.C())
	const n = 50
	for i := 0; i < n; i++ {
		if err := src.Send(wire.Encode(mkMsg(i, wire.TypeObjects))); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Inserted.Load() != 0 {
		t.Errorf("Inserted = %d with a failing store", st.Inserted.Load())
	}
	if st.InsertErrors.Load() == 0 {
		t.Error("failing InsertBatch must increment Stats.InsertErrors")
	}
	if st.InsertLost.Load() != n {
		t.Errorf("InsertLost = %d, want %d (every message of every failed batch)",
			st.InsertLost.Load(), n)
	}
}

func TestShardingPreservesPerJobOrder(t *testing.T) {
	db, _ := sirendb.Open("")
	r := New(db, Options{Writers: 4, BatchMax: 8})
	src := wire.NewChanTransport(1 << 12)
	r.AttachChannel(src.C())
	const jobs, perJob = 8, 100
	for seq := 0; seq < perJob; seq++ {
		for j := 0; j < jobs; j++ {
			m := mkMsg(seq, wire.TypeObjects)
			m.JobID = fmt.Sprintf("job-%d", j)
			m.Content = []byte(fmt.Sprintf("seq=%d", seq))
			if err := src.Send(wire.Encode(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Count(); got != jobs*perJob {
		t.Fatalf("stored %d, want %d", got, jobs*perJob)
	}
	// Within one job (same host), insertion order must match send order even
	// though four writer shards ran concurrently.
	for j := 0; j < jobs; j++ {
		ms := db.ByJob(fmt.Sprintf("job-%d", j))
		if len(ms) != perJob {
			t.Fatalf("job %d: %d messages, want %d", j, len(ms), perJob)
		}
		for seq, m := range ms {
			if want := fmt.Sprintf("seq=%d", seq); string(m.Content) != want {
				t.Fatalf("job %d position %d: content %q, want %q (reordered)",
					j, seq, m.Content, want)
			}
		}
	}
}

func TestMalformedAcrossShards(t *testing.T) {
	// Garbage that defeats the shard-key scan must still be counted exactly
	// once as malformed, wherever it lands.
	db, _ := sirendb.Open("")
	r := New(db, Options{Writers: 4})
	src := wire.NewChanTransport(64)
	r.AttachChannel(src.C())
	src.Send([]byte("no magic at all"))
	src.Send([]byte("SIREN1|JOBID=1|truncated"))
	src.Send(wire.Encode(mkMsg(1, wire.TypeMetadata)))
	src.Close()
	r.Close()
	if db.Count() != 1 {
		t.Errorf("stored %d, want 1", db.Count())
	}
	if got := r.Stats().Malformed.Load(); got != 2 {
		t.Errorf("Malformed = %d, want 2", got)
	}
}

// sendJobSpread pushes n messages spread over several (JobID, Host) pairs
// through a channel transport and closes everything down.
func sendJobSpread(t *testing.T, r *Receiver, n int) {
	t.Helper()
	src := wire.NewChanTransport(1 << 12)
	r.AttachChannel(src.C())
	for i := 0; i < n; i++ {
		m := mkMsg(i, wire.TypeObjects)
		m.JobID = fmt.Sprintf("job-%d", i%9)
		m.Host = fmt.Sprintf("nid%06d", i%4)
		if err := src.Send(wire.Encode(m)); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectShardRoutingEndToEnd(t *testing.T) {
	// Writers == store shards: the receiver must detect the sharded store
	// and route writer batches straight into their store shards, with every
	// message still stored and queryable.
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := New(db, Options{Writers: 4, BatchMax: 16})
	if r.direct == nil {
		t.Fatal("matched shard counts must enable direct store routing")
	}
	const n = 900
	sendJobSpread(t, r, n)
	if got := db.Count(); got != n {
		t.Errorf("stored %d, want %d", got, n)
	}
	for j := 0; j < 9; j++ {
		if got := len(db.ByJob(fmt.Sprintf("job-%d", j))); got != n/9 {
			t.Errorf("job-%d: %d rows, want %d", j, got, n/9)
		}
	}
}

func TestMismatchedShardCountsFallBack(t *testing.T) {
	// Writers != store shards: no 1:1 mapping exists, so the receiver must
	// fall back to InsertBatch (store-side hash partitioning) and still
	// store everything.
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := New(db, Options{Writers: 4, BatchMax: 16})
	if r.direct != nil {
		t.Fatal("mismatched shard counts must not claim direct routing")
	}
	const n = 600
	sendJobSpread(t, r, n)
	if got := db.Count(); got != n {
		t.Errorf("stored %d, want %d", got, n)
	}
}

func TestDirectRoutingPersistentReplay(t *testing.T) {
	// The full paper pipeline shape: UDP-less channel ingest into a
	// WAL-backed sharded store, then a restart replays every stored row.
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := sirendb.OpenOptions(path, sirendb.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := New(db, Options{Writers: 2, BatchMax: 32})
	const n = 300
	sendJobSpread(t, r, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := sirendb.OpenOptions(path, sirendb.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Count(); got != n {
		t.Errorf("replayed %d rows, want %d", got, n)
	}
	if db2.CorruptRecords() != 0 {
		t.Errorf("corrupt = %d", db2.CorruptRecords())
	}
}

func BenchmarkPipelineChannel(b *testing.B) {
	db, _ := sirendb.Open("")
	r := New(db, Options{Depth: 1 << 16})
	src := wire.NewChanTransport(1 << 16)
	r.AttachChannel(src.C())
	d := wire.Encode(mkMsg(1, wire.TypeObjects))
	b.SetBytes(int64(len(d)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for src.Send(d) != nil {
		}
	}
	b.StopTimer()
	src.Close()
	r.Close()
}
