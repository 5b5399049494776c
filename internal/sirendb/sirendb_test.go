package sirendb

import (
	"os"
	"path/filepath"
	"testing"

	"siren/internal/wire"
)

func msg(job string, pid int, typ string, content string) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: job, StepID: "0", PID: pid, Hash: "abcd", Host: "nid001001",
			Time: 1733900000, Layer: wire.LayerSelf, Type: typ, Seq: 0, Total: 1,
		},
		Content: []byte(content),
	}
}

func TestInMemoryBasics(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert(msg("1", 10, wire.TypeMetadata, "m")); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch([]wire.Message{
		msg("1", 10, wire.TypeObjects, "libs"),
		msg("2", 11, wire.TypeMetadata, "m2"),
	}); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 3 {
		t.Errorf("Count = %d", db.Count())
	}
	if got := db.ByJob("1"); len(got) != 2 {
		t.Errorf("ByJob(1) = %d rows", len(got))
	}
	if got := db.Jobs(); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Errorf("Jobs = %q", got)
	}
	n := 0
	db.Scan(func(m wire.Message) bool { n++; return true })
	if n != 3 {
		t.Errorf("Scan visited %d", n)
	}
	// Early stop.
	n = 0
	db.Scan(func(m wire.Message) bool { n++; return false })
	if n != 1 {
		t.Errorf("Scan early-stop visited %d", n)
	}
}

func TestPersistAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert(msg("42", i, wire.TypeMetadata, "content")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Count() != 100 {
		t.Errorf("replayed %d rows, want 100", db2.Count())
	}
	if db2.CorruptRecords() != 0 {
		t.Errorf("corrupt = %d", db2.CorruptRecords())
	}
	// Appending after replay must work.
	if err := db2.Insert(msg("43", 1, wire.TypeObjects, "x")); err != nil {
		t.Fatal(err)
	}
	if db2.Count() != 101 {
		t.Errorf("count after append = %d", db2.Count())
	}
}

func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		db.Insert(msg("7", i, wire.TypeMetadata, "c"))
	}
	db.Close()

	// Simulate a crash mid-write: truncate the last few bytes of the
	// single segment.
	seg := segmentPath(path, 0)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Count() != 9 {
		t.Errorf("after torn tail: %d rows, want 9", db2.Count())
	}
}

func TestCorruptRecordSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(msg("7", 1, wire.TypeMetadata, "first"))
	db.Insert(msg("7", 2, wire.TypeMetadata, "second"))
	db.Insert(msg("7", 3, wire.TypeMetadata, "third"))
	db.Close()

	// Flip a byte inside the middle record's payload.
	seg := segmentPath(path, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordOffsets(t, data)
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	data[recs[1].payloadOff+2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Count()+db2.CorruptRecords() != 3 {
		t.Errorf("rows=%d corrupt=%d, want total 3", db2.Count(), db2.CorruptRecords())
	}
	if db2.CorruptRecords() == 0 {
		t.Error("corruption not detected")
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	db, _ := Open("")
	defer db.Close()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				db.Insert(msg("j", g*1000+i, wire.TypeMetadata, "x"))
			}
			done <- true
		}(g)
	}
	go func() {
		for i := 0; i < 100; i++ {
			db.Scan(func(m wire.Message) bool { return true })
			db.Count()
		}
		done <- true
	}()
	for i := 0; i < 5; i++ {
		<-done
	}
	if db.Count() != 2000 {
		t.Errorf("Count = %d, want 2000", db.Count())
	}
}

func BenchmarkInsertMemory(b *testing.B) {
	db, _ := Open("")
	defer db.Close()
	m := msg("1", 1, wire.TypeObjects, "/lib64/libc.so.6\n/lib64/libm.so.6\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PID = i
		if err := db.Insert(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertWAL(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	db, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	m := msg("1", 1, wire.TypeObjects, "/lib64/libc.so.6\n/lib64/libm.so.6\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PID = i
		if err := db.Insert(m); err != nil {
			b.Fatal(err)
		}
	}
}
