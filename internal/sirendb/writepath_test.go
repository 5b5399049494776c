package sirendb

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"siren/internal/wire"
)

// TestWALBatchBytesPinned pins the WAL framing byte for byte: the SHA-256 was
// computed from the buffer the per-record wire.Encode + copy encodeRecords
// produced for this batch, sequence numbers patched in.
func TestWALBatchBytesPinned(t *testing.T) {
	types := []string{wire.TypeMetadata, wire.TypeObjects, wire.TypeFileH, "CUSTOM"}
	ms := make([]wire.Message, 128)
	for i := range ms {
		ms[i] = wire.Message{
			Header: wire.Header{
				JobID: fmt.Sprintf("job-%d", i%5), StepID: "0", PID: 4000 + i,
				Hash: fmt.Sprintf("%032x", uint64(i)*2654435761), Host: fmt.Sprintf("nid%04d", i%3),
				Time: 1733900000 + int64(i), Layer: wire.LayerSelf, Type: types[i%len(types)],
				Seq: i % 3, Total: 3,
			},
			Content: bytes.Repeat([]byte{byte('A' + i%26)}, (i*53)%700),
		}
	}
	buf, marks, err := encodeRecords(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, mk := range marks {
		patchRecordSeq(buf, mk, 1000+uint64(i))
	}
	const want = "ea5f3af43ee231dc58119ede7194a87e1d61170824b24f091ed02deedabb2208"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != want || len(buf) != 64644 {
		t.Errorf("WAL batch = %d bytes, sha256 %s; want 64644 bytes, %s", len(buf), got, want)
	}
}

// TestInsertShardAllocations holds the write path to its budget: a 128-row
// batch into a persistent store allocates the WAL buffer, the record marks,
// and — amortised — the growth of the row slice and the by-job index lists.
// It used to cost about five allocations per row (two encodes, a copy and a
// process-key string each).
func TestInsertShardAllocations(t *testing.T) {
	db, err := OpenOptions(filepath.Join(t.TempDir(), "siren.wal"), Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batch := make([]wire.Message, 128)
	for i := range batch {
		batch[i] = jobMsg(fmt.Sprintf("job-%d", i%4), "nid0001", 100+i, "3:abcdefghijklmnop:qrstuvwx")
	}
	perBatch := testing.AllocsPerRun(200, func() {
		if err := db.InsertShard(0, batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("InsertShard of %d rows: %.2f allocations", len(batch), perBatch)
	if perBatch > 8 {
		t.Errorf("InsertShard of %d rows = %.1f allocations, want <= 8", len(batch), perBatch)
	}
}

// TestReplayReservationFollowsTheSegment: replay sizes a shard's row slice
// from the segment's length and the mean record size, so the slice must end
// close to the rows that exist whatever order sizes arrive in. One small
// record ahead of near-MTU ones used to set the "mean" alone and reserve
// about fifteen rows for every one that followed.
func TestReplayReservationFollowsTheSegment(t *testing.T) {
	large := strings.Repeat("x", 1300)
	for name, content := range map[string]func(i int) string{
		"uniform":            func(int) string { return large },
		"small record first": func(i int) string { return large[:min(i*len(large), len(large))] },
		"small records last": func(i int) string { return large[:len(large)-min(max(i-3000, 0)*len(large), len(large))] },
	} {
		path := filepath.Join(t.TempDir(), "siren.wal")
		db, err := OpenOptions(path, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		const n = 4000
		batch := make([]wire.Message, n)
		for i := range batch {
			batch[i] = jobMsg("job-1", "nid0001", 100+i, content(i))
		}
		if err := db.InsertShard(0, batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = OpenOptions(path, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows := db.shards[0].rows
		if len(rows) != n || cap(rows) > 2*len(rows) {
			t.Errorf("%s: replayed %d of %d rows into a slice of capacity %d, want at most %d",
				name, len(rows), n, cap(rows), 2*n)
		}
		db.Close()
	}
}
