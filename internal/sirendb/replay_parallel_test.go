package sirendb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"siren/internal/wire"
	"siren/internal/xxhash"
)

// serialRow is one row as a serial replay of the segment files places it.
type serialRow struct {
	seq   uint64
	bytes string
	job   string
}

// serialReplay is what opening a store must produce, computed by replaying
// its segment files one after another in index order by the rules of wal.go:
// a torn or out-of-bounds record ends a segment, a checksum or scan failure
// or a non-canonical row is counted corrupt and skipped, rows at or below
// the seal marker's floor are residue, and every row of segment k belongs to
// shard k mod shards, whatever its (JobID, Host) hashes to.
type serialReplay struct {
	shards  [][]serialRow // per shard, seq-ascending
	lastSeq uint64
	corrupt int
}

func replaySerially(t *testing.T, path string, shards int) *serialReplay {
	t.Helper()
	_, floor, err := readSealMarker(path)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := discoverSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	o := &serialReplay{shards: make([][]serialRow, shards), lastSeq: floor}
	for _, sf := range segs {
		data, err := os.ReadFile(sf.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < len(segMagic) {
			continue
		}
		for pos := len(segMagic); len(data)-pos >= recHdrSize; {
			length := binary.LittleEndian.Uint32(data[pos:])
			sum := binary.LittleEndian.Uint32(data[pos+4:])
			seq := binary.LittleEndian.Uint64(data[pos+8:])
			end := pos + recHdrSize + int(length)
			if length > maxRecordLen || end > len(data) {
				break
			}
			payload := data[pos+recHdrSize : end]
			pos = end
			f, err := wire.Scan(payload)
			if uint32(xxhash.Sum64(payload))^seqMix(seq) != sum || err != nil || !f.Canonical {
				o.corrupt++
				continue
			}
			if seq <= floor {
				continue
			}
			sh := sf.index % shards
			o.shards[sh] = append(o.shards[sh], serialRow{seq: seq, bytes: string(payload), job: string(f.Value(payload, wire.FieldJobID))})
			o.lastSeq = max(o.lastSeq, seq)
		}
	}
	for _, rows := range o.shards {
		slices.SortFunc(rows, func(a, b serialRow) int { return cmp.Compare(a.seq, b.seq) })
	}
	return o
}

// jobRows returns every job's rows, across shards, seq-ascending.
func (o *serialReplay) jobRows() map[string][]serialRow {
	out := make(map[string][]serialRow)
	for _, rows := range o.shards {
		for _, r := range rows {
			out[r.job] = append(out[r.job], r)
		}
	}
	for _, rows := range out {
		slices.SortFunc(rows, func(a, b serialRow) int { return cmp.Compare(a.seq, b.seq) })
	}
	return out
}

// buildReplayStore writes a store the concurrent replay has to sort out:
// random InsertShard batches, some misrouted, first at a larger shard count
// (so leftover segments remain) and then at shards; then one record's
// payload is flipped and one segment gets a torn tail.
func buildReplayStore(t *testing.T, r *rand.Rand, path string, shards int) {
	t.Helper()
	msg := func(i int) wire.Message {
		return wire.Message{
			Header: wire.Header{
				JobID: fmt.Sprintf("job-%d", r.Intn(9)), StepID: "0", PID: 100 + r.Intn(50),
				Hash: "feed", Host: fmt.Sprintf("nid%04d", r.Intn(6)),
				Time: 1733900000 + int64(i), Layer: wire.LayerSelf, Type: wire.TypeMetadata,
				Seq: 0, Total: 1,
			},
			Content: []byte(fmt.Sprintf("EXE=/bin/app-%d", i)),
		}
	}
	n := 0
	for _, count := range []int{shards + 1 + r.Intn(3), shards} {
		db, err := OpenOptions(path, Options{Shards: count})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 20+r.Intn(20); b++ {
			batch := make([]wire.Message, 1+r.Intn(8))
			for i := range batch {
				batch[i] = msg(n)
				n++
			}
			// The batch goes to its first row's shard; the rest of it, or
			// the whole batch one time in four, is misrouted.
			sh := db.shardIndex([]byte(batch[0].JobID), []byte(batch[0].Host))
			if r.Intn(4) == 0 {
				sh = r.Intn(count)
			}
			if err := db.InsertShard(sh, batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(segmentPath(path, shards)); err != nil {
		t.Fatalf("test premise broken: no leftover segment: %v", err)
	}

	segs, err := discoverSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := segs[r.Intn(len(segs))].path
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if recs := recordOffsets(t, data); len(recs) > 0 {
		rec := recs[r.Intn(len(recs))]
		data[rec.payloadOff+r.Intn(rec.payloadLen)] ^= 0x20
		if err := os.WriteFile(corrupt, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := segs[r.Intn(len(segs))].path
	data, err = os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if recs := recordOffsets(t, data); len(recs) > 0 {
		// A copy of a record cut short: its header, and part of its payload.
		rec := recs[r.Intn(len(recs))]
		data = append(data, data[rec.hdrOff:rec.payloadOff+r.Intn(rec.payloadLen)]...)
		if err := os.WriteFile(torn, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelReplayMatchesSerial: opening a store replays its segments
// concurrently, one goroutine per shard taking segment k for shard
// k % shards — misrouted rows and the rows of leftover segments included.
// Read-write and read-only opens must give every shard exactly the rows and
// seqs a serial replay gives it, with the same job lists, LastSeq and
// corrupt-record count.
func TestParallelReplayMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			shards := 1 + r.Intn(3)
			path := filepath.Join(t.TempDir(), "siren.wal")
			buildReplayStore(t, r, path, shards)
			want := replaySerially(t, path, shards)
			if want.corrupt == 0 {
				t.Fatal("test premise broken: no corrupt record")
			}
			for _, readOnly := range []bool{true, false} {
				db, err := OpenOptions(path, Options{Shards: shards, ReadOnly: readOnly})
				if err != nil {
					t.Fatal(err)
				}
				checkReplay(t, fmt.Sprintf("readonly=%v", readOnly), db, want)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func checkReplay(t *testing.T, open string, db *DB, want *serialReplay) {
	t.Helper()
	if got := db.CorruptRecords(); got != want.corrupt {
		t.Errorf("%s: CorruptRecords = %d, want %d", open, got, want.corrupt)
	}
	snap := db.Snapshot()
	if got := snap.LastSeq(); got != want.lastSeq {
		t.Errorf("%s: LastSeq = %d, want %d", open, got, want.lastSeq)
	}
	wantJobs := want.jobRows()
	if got, w := snap.Jobs(), slices.Sorted(maps.Keys(wantJobs)); !slices.Equal(got, w) {
		t.Errorf("%s: Jobs = %v, want %v", open, got, w)
	}
	for job, w := range wantJobs {
		var got []serialRow
		snap.JobRows(job, func(row *wire.Scanned, seq uint64) bool {
			got = append(got, serialRow{seq: seq, bytes: string(row.Datagram), job: job})
			return true
		})
		if !slices.Equal(got, w) {
			t.Errorf("%s: JobRows(%s) = %d rows, want %d, or they differ", open, job, len(got), len(w))
		}
	}
	got := shardRows(snap)
	for sh := range want.shards {
		if !slices.Equal(got[sh], want.shards[sh]) {
			t.Errorf("%s: shard %d holds %d rows, want %d, or they differ", open, sh, len(got[sh]), len(want.shards[sh]))
		}
	}
}

// shardRows reads every shard of a snapshot through ShardCursor.
func shardRows(sn *Snapshot) [][]serialRow {
	out := make([][]serialRow, sn.Shards())
	for sh := range out {
		c := sn.ShardCursor(sh)
		for m, seq, ok := c.Next(); ok; m, seq, ok = c.Next() {
			out[sh] = append(out[sh], serialRow{seq: seq, bytes: string(wire.Encode(m)), job: m.JobID})
		}
	}
	return out
}

// TestReplayKeepsMisroutedRowsOnTheirShard: a row stays on the shard it was
// written to. A store whose InsertShard batches went to shards their rows do
// not hash to — before and after a seal — serves every ShardCursor(i) after
// a reopen at the same shard count, read-only or not, exactly as it did
// before Close.
func TestReplayKeepsMisroutedRowsOnTheirShard(t *testing.T) {
	const shards = 3
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(240)
	for b := 0; b < len(ms); b += 8 {
		batch := ms[b : b+8]
		// Every other batch goes to a shard its first row does not hash to.
		sh := db.shardIndex([]byte(batch[0].JobID), []byte(batch[0].Host))
		if b/8%2 == 1 {
			sh = (sh + 1) % shards
		}
		if err := db.InsertShard(sh, batch); err != nil {
			t.Fatal(err)
		}
		if b == len(ms)/2 {
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := shardRows(db.Snapshot())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, readOnly := range []bool{true, false} {
		db, err := OpenOptions(path, Options{Shards: shards, ReadOnly: readOnly})
		if err != nil {
			t.Fatal(err)
		}
		got := shardRows(db.Snapshot())
		for sh := range want {
			if !slices.Equal(got[sh], want[sh]) {
				t.Errorf("readonly=%v: shard %d serves %d rows after reopen, %d before Close, or they differ", readOnly, sh, len(got[sh]), len(want[sh]))
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
