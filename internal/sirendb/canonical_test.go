package sirendb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"siren/internal/wire"
)

// canonicalRow is a datagram as an insert stores it; nonCanonicalRow scans
// to the same Message but spells PID with leading zeros, which no insert
// writes.
const canonicalRow = "SIREN1|JOBID=J|STEPID=0|PID=7|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=1|CONTENT=x"

var nonCanonicalRow = strings.Replace(canonicalRow, "PID=7|", "PID=007|", 1)

// TestReplayCountsNonCanonicalRowCorrupt: only insert writes WAL records,
// and it writes canonical bytes (DESIGN.md §3), so a framed record whose
// checksum holds but whose row spells PID as 007 was not written by this
// store. Replay counts it in CorruptRecords and keeps the rows around it,
// instead of indexing a row whose bytes a consolidation could not key.
func TestReplayCountsNonCanonicalRowCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(spreadMsg(0, "first")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var tail []byte
	for i, payload := range []string{nonCanonicalRow, canonicalRow} {
		rec := make([]byte, recHdrSize+len(payload))
		copy(rec[recHdrSize:], payload)
		frameRecord(rec, len(payload), uint64(2+i))
		tail = append(tail, rec...)
	}
	f, err := os.OpenFile(segmentPath(path, 0), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = OpenOptions(path, Options{Shards: 1, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.CorruptRecords(); got != 1 {
		t.Errorf("CorruptRecords = %d, want 1 (the PID=007 row)", got)
	}
	if got := db.Count(); got != 2 {
		t.Errorf("Count = %d, want the 2 canonical rows", got)
	}
	n := 0
	db.Snapshot().Iter(func(m wire.Message) bool {
		n++
		if m.PID == 7 && m.JobID == "J" && string(m.Content) != "x" {
			t.Errorf("replayed row %+v", m)
		}
		return true
	})
	if n != 2 {
		t.Errorf("snapshot holds %d rows, want 2", n)
	}
}
