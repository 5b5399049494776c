// Replay, durability, and recovery tests for the segmented WAL: a corruption
// matrix (torn header, torn payload, in-bounds corrupt length, mid-file
// bitflip) over single- and multi-segment stores, a crash-mid-group-commit
// simulation proving no acknowledged row is lost, process-exclusion locking,
// ErrClosed semantics, and shard-count changes across reopens.
package sirendb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"siren/internal/wire"
)

// spreadMsg varies (JobID, Host) so rows land on every shard.
func spreadMsg(i int, content string) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: fmt.Sprintf("job-%d", i%7), StepID: "0", PID: i,
			Hash: "abcd", Host: fmt.Sprintf("nid%06d", i%5),
			Time: 1733900000 + int64(i), Layer: wire.LayerSelf,
			Type: wire.TypeMetadata, Seq: 0, Total: 1,
		},
		Content: []byte(content),
	}
}

type recOffset struct {
	hdrOff     int // start of the 16-byte record header
	payloadOff int
	payloadLen int
	seq        uint64
}

// recordOffsets walks a segment file's framing (skipping the magic) so tests
// can corrupt records surgically.
func recordOffsets(t *testing.T, data []byte) []recOffset {
	t.Helper()
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		t.Fatalf("segment missing magic")
	}
	var recs []recOffset
	off := len(segMagic)
	for off+recHdrSize <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		seq := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if off+recHdrSize+length > len(data) {
			break
		}
		recs = append(recs, recOffset{
			hdrOff: off, payloadOff: off + recHdrSize, payloadLen: length, seq: seq,
		})
		off += recHdrSize + length
	}
	return recs
}

// largestSegment returns the path and contents of the store segment holding
// the most records.
func largestSegment(t *testing.T, base string, shards int) (string, []byte) {
	t.Helper()
	var bestPath string
	var bestData []byte
	best := -1
	for i := 0; i < shards; i++ {
		p := segmentPath(base, i)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(recordOffsets(t, data)); n > best {
			best, bestPath, bestData = n, p, data
		}
	}
	return bestPath, bestData
}

func TestReplayCorruptionMatrix(t *testing.T) {
	const rows = 120
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"torn-header", "torn-payload", "corrupt-length", "bitflip"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "siren.wal")
				db, err := OpenOptions(path, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rows; i++ {
					if err := db.Insert(spreadMsg(i, "content-payload")); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				seg, data := largestSegment(t, path, shards)
				recs := recordOffsets(t, data)
				if len(recs) < 4 {
					t.Fatalf("segment %s has only %d records", seg, len(recs))
				}
				segRows := len(recs)
				otherRows := rows - segRows
				mid := len(recs) / 2
				var wantRows, wantCorruptMin int
				switch mode {
				case "torn-header":
					// Crash mid-append: only half the last record's header
					// made it out. The record is lost, everything else is not.
					data = data[:recs[segRows-1].hdrOff+7]
					wantRows = rows - 1
				case "torn-payload":
					data = data[:recs[segRows-1].payloadOff+recs[segRows-1].payloadLen/2]
					wantRows = rows - 1
				case "corrupt-length":
					// An in-bounds garbage length misframes the stream from
					// the middle record on: rows before it and in other
					// segments survive, the rest surface as corrupt/lost.
					binary.LittleEndian.PutUint32(data[recs[mid].hdrOff:], uint32(recs[mid].payloadLen+5))
					wantRows = otherRows + mid
					wantCorruptMin = 1
				case "bitflip":
					// One flipped payload byte kills exactly that record;
					// framing stays intact so every other record replays.
					data[recs[mid].payloadOff+1] ^= 0x80
					wantRows = rows - 1
					wantCorruptMin = 1
				}
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}

				db2, err := OpenOptions(path, Options{Shards: shards})
				if err != nil {
					t.Fatalf("reopen after %s: %v", mode, err)
				}
				defer db2.Close()
				got := db2.Count()
				switch mode {
				case "corrupt-length":
					// Misframing can destroy later records in this segment
					// but never rows before the corruption or other segments.
					if got < wantRows || got >= rows {
						t.Errorf("rows = %d, want [%d, %d)", got, wantRows, rows)
					}
				default:
					if got != wantRows {
						t.Errorf("rows = %d, want %d", got, wantRows)
					}
				}
				if db2.CorruptRecords() < wantCorruptMin {
					t.Errorf("corrupt = %d, want >= %d", db2.CorruptRecords(), wantCorruptMin)
				}
				// Accounting stays sane: nothing is double-counted.
				if got+db2.CorruptRecords() > rows {
					t.Errorf("rows %d + corrupt %d exceed written %d", got, db2.CorruptRecords(), rows)
				}
			})
		}
	}
}

// TestCrashMidGroupCommit proves the group-commit contract: every row
// acknowledged by the Sync barrier survives a crash, simulated by keeping
// only each segment's fdatasync-confirmed prefix (the pessimistic model —
// nothing past the last fdatasync reached the platter) plus torn residue.
func TestCrashMidGroupCommit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "siren.wal")
			// A huge interval keeps the background syncer idle so the test
			// controls exactly what is durable.
			db, err := OpenOptions(path, Options{Shards: shards, SyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			const acked = 180
			for i := 0; i < acked; i++ {
				if err := db.Insert(spreadMsg(i, "acknowledged")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Sync(); err != nil { // durability barrier: rows 0..179 acknowledged
				t.Fatal(err)
			}
			for i := acked; i < acked+90; i++ {
				if err := db.Insert(spreadMsg(i, "in-flight")); err != nil {
					t.Fatal(err)
				}
			}

			// Crash: copy each segment truncated at its synced offset, plus
			// a few torn bytes of the unsynced tail on shard 0.
			crash := filepath.Join(dir, "after-crash")
			if err := os.Mkdir(crash, 0o755); err != nil {
				t.Fatal(err)
			}
			crashPath := filepath.Join(crash, "siren.wal")
			for i, s := range db.shards {
				data, err := os.ReadFile(segmentPath(path, i))
				if err != nil {
					t.Fatal(err)
				}
				durable := s.synced.Load()
				if int64(len(data)) < durable {
					t.Fatalf("shard %d: synced %d beyond file size %d", i, durable, len(data))
				}
				keep := data[:durable]
				if i == 0 && int64(len(data)) > durable+5 {
					keep = data[:durable+5] // torn unsynced tail
				}
				if err := os.WriteFile(segmentPath(crashPath, i), keep, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db.Close()

			db2, err := OpenOptions(crashPath, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if got := db2.Count(); got != acked {
				t.Errorf("replayed %d rows, want exactly the %d acknowledged", got, acked)
			}
			if db2.CorruptRecords() != 0 {
				t.Errorf("corrupt = %d after clean group-commit crash", db2.CorruptRecords())
			}
			for _, m := range allRows(db2) {
				if string(m.Content) != "acknowledged" {
					t.Fatalf("unacknowledged row %q replayed as durable", m.Content)
				}
			}
		})
	}
}

// TestAppendAfterTornTail pins the recovery rule that appends resume at the
// end of the valid prefix: the seed implementation appended *after* torn
// residue, making every post-crash insert unreachable to the next replay.
func TestAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		db.Insert(msg("7", i, wire.TypeMetadata, "before"))
	}
	db.Close()
	seg := segmentPath(path, 0)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Count() != 9 {
		t.Fatalf("after tear: %d rows, want 9", db2.Count())
	}
	for i := 0; i < 5; i++ {
		if err := db2.Insert(msg("8", i, wire.TypeMetadata, "after")); err != nil {
			t.Fatal(err)
		}
	}
	db2.Close()

	db3, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Count() != 14 {
		t.Errorf("after reopen: %d rows, want 14 (post-crash appends must be replayable)", db3.Count())
	}
	if db3.CorruptRecords() != 0 {
		t.Errorf("corrupt = %d", db3.CorruptRecords())
	}
}

func TestGroupCommitLatencyBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2, SyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50; i++ {
		if err := db.Insert(spreadMsg(i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	// Without any explicit Sync, the background syncers must make every
	// appended byte durable within the latency bound (plus slack for a
	// loaded CI box).
	deadline := time.Now().Add(5 * time.Second)
	for {
		allSynced := true
		for _, s := range db.shards {
			s.mu.RLock()
			w := s.written
			s.mu.RUnlock()
			if s.synced.Load() < w {
				allSynced = false
			}
		}
		if allSynced {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("group-commit syncer did not fdatasync within the latency bound")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInsertAfterCloseReturnsErrClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(msg("1", 1, wire.TypeMetadata, "x")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(msg("1", 2, wire.TypeMetadata, "dropped")); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert after Close = %v, want ErrClosed", err)
	}
	if err := db.InsertBatch([]wire.Message{msg("1", 3, wire.TypeMetadata, "dropped")}); !errors.Is(err, ErrClosed) {
		t.Errorf("InsertBatch after Close = %v, want ErrClosed", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}
	// The in-memory view stays readable, and no silent row slipped in.
	if db.Count() != 1 {
		t.Errorf("Count = %d after rejected inserts, want 1", db.Count())
	}
	// A second Close stays a no-op.
	if err := db.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	// Purely in-memory stores have no WAL to protect; Close keeps them usable.
	mem, _ := Open("")
	mem.Close()
	if err := mem.Insert(msg("1", 1, wire.TypeMetadata, "ok")); err != nil {
		t.Errorf("in-memory Insert after Close = %v", err)
	}
}

// TestSyncFailurePoisonsInserts: once a group commit fails, durability is
// already lost for an acknowledged window — further inserts must fail
// loudly (the receiver counts them in its stats) instead of acknowledging
// rows that may never become durable.
func TestSyncFailurePoisonsInserts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert(spreadMsg(1, "ok")); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected fdatasync failure")
	db.recordSyncErr(injected)
	if err := db.Insert(spreadMsg(2, "x")); !errors.Is(err, injected) {
		t.Errorf("Insert after sync failure = %v, want the sticky sync error", err)
	}
	if err := db.Sync(); !errors.Is(err, injected) {
		t.Errorf("Sync after sync failure = %v, want the sticky sync error", err)
	}
}

func TestOpenConflictReturnsErrLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrLocked) {
		t.Errorf("second Open = %v, want ErrLocked", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the holder: reopening after Close succeeds.
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	db2.Close()
}

// openShrunkStore writes rows across 4 segments, closes, reopens at 2 shards
// — so segments 2 and 3 are read-only leftovers whose rows replay onto
// shards 0 and 1 (segment k onto shard k % 2) — and inserts extra more rows
// into the shrunk store.
// It returns the open store and every row in it.
func openShrunkStore(t *testing.T, path string, rows, extra int) (*DB, []wire.Message) {
	t.Helper()
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]wire.Message, rows+extra)
	for i := range ms {
		ms[i] = spreadMsg(i, "v")
	}
	if err := db.InsertBatch(ms[:rows]); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if fi, err := os.Stat(segmentPath(path, i)); err != nil || fi.Size() <= int64(len(segMagic)) {
			t.Fatalf("test premise broken: segment %d holds no rows (err=%v)", i, err)
		}
	}
	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Count() != rows {
		t.Fatalf("after shrink: %d rows, want %d", db2.Count(), rows)
	}
	if err := db2.InsertBatch(ms[rows:]); err != nil {
		t.Fatal(err)
	}
	return db2, ms
}

func TestShardCountChangeAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db2, ms := openShrunkStore(t, path, 60, 10)
	// Seal moves the leftover segments' rows into runs and removes them.
	if err := db2.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if _, err := os.Stat(segmentPath(path, i)); !os.IsNotExist(err) {
			t.Errorf("leftover segment %d survived Seal (err=%v)", i, err)
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Grow: the runs re-attach and the head re-partitions across 8 shards.
	db3, err := OpenOptions(path, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Count() != len(ms) {
		t.Errorf("after grow: %d rows, want %d", db3.Count(), len(ms))
	}
	assertAll(t, db3, ms)
}

// TestSealCrashWithLeftoverSegmentsNoDuplicates: a Seal that crashes right
// after its commit marker leaves every sealed row on disk twice — in a run,
// and in an untruncated active segment or a not-yet-removed leftover one.
// The marker's maxseq floor alone must collapse them on replay: read-only,
// under the same shard count, and under a different one.
func TestSealCrashWithLeftoverSegmentsNoDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, ms := openShrunkStore(t, path, 50, 10)
	db.testCrashAfterSealCommit = true
	if err := db.Seal(); err == nil {
		t.Fatal("injected crash did not surface")
	}
	_ = db.Close() // poisoned store; close error is expected noise
	for _, i := range []int{2, 3} {
		if _, err := os.Stat(segmentPath(path, i)); err != nil {
			t.Fatalf("test premise broken: leftover segment %d gone: %v", i, err)
		}
	}

	// Read-only first: it must serve the rolled-forward view without having
	// mutated anything the writable reopens then still have to filter.
	for _, opts := range []Options{{Shards: 2, ReadOnly: true}, {Shards: 2}, {Shards: 8}} {
		db2, err := OpenOptions(path, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if db2.Count() != len(ms) {
			t.Errorf("%+v: Count = %d, want %d", opts, db2.Count(), len(ms))
		}
		assertAll(t, db2, ms)
		if db2.CorruptRecords() != 0 {
			t.Errorf("%+v: corrupt = %d", opts, db2.CorruptRecords())
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	big := spreadMsg(1, "")
	big.Content = make([]byte, maxRecordLen+1)
	if err := db.Insert(big); err == nil {
		t.Fatal("a record replay would treat as a torn tail must be rejected at write time")
	}
	// The store stays fully usable and the segment unpolluted.
	if err := db.Insert(spreadMsg(2, "ok")); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 1 {
		t.Errorf("Count = %d, want 1", db.Count())
	}
}

func TestScanMergesShardsInInsertionOrder(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const rows = 200
	for i := 0; i < rows; i++ {
		m := spreadMsg(i, fmt.Sprintf("%d", i))
		if err := db.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	db.Snapshot().Iter(func(m wire.Message) bool {
		if string(m.Content) != fmt.Sprintf("%d", want) {
			t.Fatalf("Iter position %d yielded %q (shard merge out of order)", want, m.Content)
		}
		want++
		return true
	})
	if want != rows {
		t.Errorf("Iter visited %d rows, want %d", want, rows)
	}
}

func TestInsertShardDirectRouting(t *testing.T) {
	db, err := OpenOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.StoreShards() != 4 {
		t.Fatalf("StoreShards = %d", db.StoreShards())
	}
	// Route batches the way matched receiver writers do: shard index =
	// PartitionHash % shards.
	byShard := make([][]wire.Message, 4)
	const rows = 80
	for i := 0; i < rows; i++ {
		m := spreadMsg(i, "direct")
		idx := int(wire.PartitionHash([]byte(m.JobID), []byte(m.Host)) % 4)
		byShard[idx] = append(byShard[idx], m)
	}
	for idx, batch := range byShard {
		if err := db.InsertShard(idx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if db.Count() != rows {
		t.Errorf("Count = %d, want %d", db.Count(), rows)
	}
	if err := db.InsertShard(4, byShard[0]); err == nil {
		t.Error("out-of-range shard index must error")
	}
}
