// Sealed-run tier tests: the seal transaction's crash matrix (crash before
// the commit marker ⇒ WAL intact and debris swept; crash after ⇒ rolled
// forward with no duplicate and no lost row; torn committed run ⇒ loud
// failure at open), retention, tier-merged reads, and the open benchmarks
// proving sealed opens stay flat while replay grows with history.
package sirendb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"siren/internal/obs"
	"siren/internal/sirendb/runfmt"
	"siren/internal/wire"
)

// sealCorpus builds a deterministic multi-job, multi-host corpus. Seqs are
// assigned at insert; contents encode (job, host, i) so any reordering or
// loss is detectable.
func sealCorpus(n int) []wire.Message {
	ms := make([]wire.Message, n)
	for i := range ms {
		ms[i] = wire.Message{
			Header: wire.Header{
				JobID: fmt.Sprintf("job-%d", i%5), StepID: "0", PID: 100 + i,
				Hash: fmt.Sprintf("%08x", i), Host: fmt.Sprintf("nid%03d", i%3),
				Time: 1733900000 + int64(i), Layer: wire.LayerSelf,
				Type: wire.TypeFileH, Total: 1,
			},
			Content: []byte(fmt.Sprintf("row-%d", i)),
		}
	}
	return ms
}

// assertAll checks the store yields exactly ms through a snapshot — every
// row exactly once, none lost, none invented. Sealed runs store rows in
// (job, host, seq) order, so Iter's order is not insertion order once a seal
// has happened; each sealCorpus row is a distinct process, so multiset
// equality over (process, Content) is the exact no-loss/no-duplicate
// check.
func assertAll(t *testing.T, db *DB, ms []wire.Message) {
	t.Helper()
	got := allRows(db)
	if len(got) != len(ms) {
		t.Fatalf("Iter: %d rows, want %d", len(got), len(ms))
	}
	want := make(map[wire.Header]string, len(ms))
	for _, m := range ms {
		want[processOf(m)] = string(m.Content)
	}
	for _, m := range got {
		c, ok := want[processOf(m)]
		if !ok {
			t.Fatalf("unexpected or duplicated row %v", m.Header)
		}
		if c != string(m.Content) {
			t.Fatalf("row %v content = %q, want %q", m.Header, m.Content, c)
		}
		delete(want, processOf(m))
	}
	if len(want) != 0 {
		t.Fatalf("%d rows missing from Iter", len(want))
	}
}

// processOf is the identity of the process instance a message belongs to:
// its header without the per-record fields.
func processOf(m wire.Message) wire.Header {
	h := m.Header
	h.Layer, h.Type, h.Seq, h.Total = "", "", 0, 0
	return h
}

func TestSealRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(400)
	if err := db.InsertBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}

	// The live store serves the sealed tier transparently.
	assertAll(t, db, ms)
	if db.Count() != len(ms) {
		t.Fatalf("Count = %d", db.Count())
	}
	st := db.Stats()
	if st.SealedGen != 1 || st.SealedRows != len(ms) || st.SealedRuns == 0 || st.Rows != len(ms) {
		t.Fatalf("Stats = %+v", st)
	}
	if got := jobRows(db, "job-2"); len(got) != 80 {
		t.Fatalf("JobRows(job-2) = %d rows, want 80", len(got))
	}
	if jobs := db.Snapshot().Jobs(); len(jobs) != 5 {
		t.Fatalf("Jobs = %v", jobs)
	}

	// Segments were truncated back to their magic.
	for i := 0; i < 4; i++ {
		fi, err := os.Stat(segmentPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(segMagic)) {
			t.Fatalf("segment %d is %d bytes after seal, want %d", i, fi.Size(), len(segMagic))
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the sealed tier attaches without replay; everything reads back.
	db2, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertAll(t, db2, ms)
	if st := db2.Stats(); st.SealedRows != len(ms) || st.SealedGen != 1 || st.LastSeq != uint64(len(ms)) {
		t.Fatalf("reopened Stats = %+v", st)
	}
}

func TestSealThenInsertThenResealAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(300)
	if err := db.InsertBatch(ms[:100]); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil { // gen 1
		t.Fatal(err)
	}
	if err := db.InsertBatch(ms[100:200]); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil { // gen 2
		t.Fatal(err)
	}
	if err := db.InsertBatch(ms[200:]); err != nil { // stays in the head
		t.Fatal(err)
	}
	assertAll(t, db, ms)
	if st := db.Stats(); st.SealedGen != 2 || st.SealedRows != 200 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertAll(t, db2, ms)
	// The head survived as WAL rows and the runs as runs.
	if st := db2.Stats(); st.SealedRows != 200 || st.Rows != 300 {
		t.Fatalf("reopened Stats = %+v", st)
	}
	// Sealing the replayed head works and bumps the generation past 2.
	if err := db2.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := db2.Stats(); st.SealedGen != 3 || st.SealedRows != 300 {
		t.Fatalf("resealed Stats = %+v", st)
	}
	assertAll(t, db2, ms)
}

func TestSealEmptyHeadIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sealMarkerPath(path)); !os.IsNotExist(err) {
		t.Fatalf("empty seal left a marker: %v", err)
	}
	if err := db.InsertBatch(sealCorpus(10)); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	gen := db.Stats().SealedGen
	if err := db.Seal(); err != nil { // nothing new to seal
		t.Fatal(err)
	}
	if got := db.Stats().SealedGen; got != gen {
		t.Fatalf("empty reseal advanced the generation: %d -> %d", gen, got)
	}
}

// TestSealCrashBeforeMarkerDiscardsDebris: a seal that wrote run files but
// died before its commit marker changes nothing — the next open deletes the
// orphan runs (even torn ones) and replays the intact WAL.
func TestSealCrashBeforeMarkerDiscardsDebris(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(120)
	if err := db.InsertBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crashed seal: one complete run and one torn run of an
	// uncommitted generation.
	w, err := runfmt.Create(runFilePath(path, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(ms[0].JobID, 1, wire.Encode(ms[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runFilePath(path, 1, 1), []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertAll(t, db2, ms) // every WAL row, no duplicate from the debris run
	if st := db2.Stats(); st.SealedGen != 0 || st.SealedRows != 0 {
		t.Fatalf("debris was attached: %+v", st)
	}
	for s := 0; s < 2; s++ {
		if _, err := os.Stat(runFilePath(path, 1, s)); !os.IsNotExist(err) {
			t.Fatalf("debris run %d survived the open: %v", s, err)
		}
	}
}

// TestSealCrashAfterMarkerRollsForward: once the marker is durable the runs
// are authoritative; the crashed process's untruncated WAL residue must not
// resurface as duplicates, and nothing may be lost.
func TestSealCrashAfterMarkerRollsForward(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(250)
	if err := db.InsertBatch(ms); err != nil {
		t.Fatal(err)
	}
	db.testCrashAfterSealCommit = true
	if err := db.Seal(); err == nil {
		t.Fatal("injected crash did not surface")
	}
	// The store is poisoned: an insert acknowledged now could land in a
	// segment recovery will re-filter.
	if err := db.Insert(ms[0]); err == nil {
		t.Fatal("insert after interrupted seal succeeded")
	}
	_ = db.Close() // poisoned store; close error is expected noise

	// Residue really is on disk: segments still hold the sealed records.
	resid := false
	for i := 0; i < 4; i++ {
		if fi, err := os.Stat(segmentPath(path, i)); err == nil && fi.Size() > int64(len(segMagic)) {
			resid = true
		}
	}
	if !resid {
		t.Fatal("test premise broken: no WAL residue left behind")
	}

	db2, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertAll(t, db2, ms) // exactly once each: runs + filtered residue
	st := db2.Stats()
	if st.SealedGen != 1 || st.SealedRows != len(ms) || st.Rows != len(ms) {
		t.Fatalf("roll-forward Stats = %+v", st)
	}
	// The store is fully functional after recovery.
	extra := sealCorpus(270)[250:]
	if err := db2.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	if err := db2.Seal(); err != nil {
		t.Fatal(err)
	}
	assertAll(t, db2, append(append([]wire.Message{}, ms...), extra...))
}

// TestSealedTornRunDetected: a committed run damaged after the fact (torn
// tail, index bit flip) fails the whole open loudly — never a silently
// reduced history.
func TestSealedTornRunDetected(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		path := filepath.Join(t.TempDir(), "siren.wal")
		db, err := OpenOptions(path, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertBatch(sealCorpus(150)); err != nil {
			t.Fatal(err)
		}
		if err := db.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return path, runFilePath(path, 1, 0)
	}

	t.Run("torn_tail", func(t *testing.T) {
		path, run := build(t)
		fi, err := os.Stat(run)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(run, fi.Size()-7); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenOptions(path, Options{Shards: 1}); err == nil {
			t.Fatal("open accepted a store with a torn committed run")
		}
	})

	t.Run("index_bitflip", func(t *testing.T) {
		path, run := build(t)
		b, err := os.ReadFile(run)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-70] ^= 0x01 // inside the job index, above the footer
		if err := os.WriteFile(run, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenOptions(path, Options{Shards: 1}); err == nil {
			t.Fatal("open accepted a store with a corrupt committed run")
		}
	})
}

// TestSealedRunReadErrorsOneCounter flips a bit inside a sealed run's data
// block — invisible at Open, found by the lazy checksum on read — and
// requires the reading snapshot's Err to report the withheld rows, and
// StoreStats.RunReadErrors and the /metrics sample of
// siren_run_read_errors_total to report the same non-zero count: they read
// one instrument.
func TestSealedRunReadErrorsOneCounter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch(sealCorpus(150)); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	run := runFilePath(path, 1, 0)
	b, err := os.ReadFile(run)
	if err != nil {
		t.Fatal(err)
	}
	b[len("SIRENRUN1\n")+8+5] ^= 0x01 // first block's payload, past its header
	if err := os.WriteFile(run, b, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry("test")
	db, err = OpenOptions(path, Options{Shards: 1, Metrics: reg})
	if err != nil {
		t.Fatalf("block corruption must stay lazy, Open: %v", err)
	}
	defer db.Close()
	sn := db.Snapshot()
	got := 0
	sn.Iter(func(wire.Message) bool { got++; return true })
	if got >= 150 {
		t.Fatalf("Iter yielded %d rows from a corrupt run, want a truncated stream", got)
	}
	if sn.Err() == nil {
		t.Fatal("snapshot Err is nil after a truncated stream: the withheld rows are silent")
	}
	stats := db.Stats().RunReadErrors
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	sample := fmt.Sprintf("\nsiren_run_read_errors_total %d\n", stats)
	if stats == 0 || !strings.Contains(text.String(), sample) {
		t.Fatalf("RunReadErrors = %d, /metrics lacks %q:\n%s", stats, sample, text.String())
	}
}

func TestSealRetention(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(300)
	for g := 0; g < 3; g++ { // three generations of 100 rows each
		if err := db.InsertBatch(ms[g*100 : (g+1)*100]); err != nil {
			t.Fatal(err)
		}
		if err := db.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	old := db.Snapshot() // must keep reading dropped runs

	// Keeping the newest two generations drops generation 1's runs.
	dropped, err := db.RetainSealedGenerations(2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("RetainSealedGenerations(2) dropped nothing")
	}
	if db.Count() != 200 {
		t.Fatalf("Count after drop = %d, want 200", db.Count())
	}
	assertAll(t, db, ms[100:])

	if _, err := db.RetainSealedGenerations(1); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 100 {
		t.Fatalf("Count after retain = %d, want 100", db.Count())
	}
	assertAll(t, db, ms[200:])

	// The pre-retention snapshot still serves all 300 rows through the
	// unlinked runs' live mappings.
	n := 0
	old.Iter(func(wire.Message) bool { n++; return true })
	if n != 300 || old.Err() != nil {
		t.Fatalf("old snapshot yields %d rows (err=%v), want 300", n, old.Err())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: absent generations stay absent, present ones attach, and the
	// next seal generation continues past the marker's.
	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertAll(t, db2, ms[200:])
	if err := db2.InsertBatch(sealCorpus(310)[300:]); err != nil {
		t.Fatal(err)
	}
	if err := db2.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := db2.Stats(); st.SealedGen != 4 {
		t.Fatalf("generation after retention+reseal = %d, want 4", st.SealedGen)
	}
}

// TestSealShardCountChange: runs written under one shard count re-attach
// under another; every row stays reachable through the tier-merged reads.
func TestSealShardCountChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(200)
	if err := db.InsertBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertAll(t, db2, ms)
	for j := 0; j < 5; j++ {
		job := fmt.Sprintf("job-%d", j)
		if got := jobRows(db2, job); len(got) != 40 {
			t.Fatalf("JobRows(%s) = %d rows under new shard count, want 40", job, len(got))
		}
	}
	// Snapshot contract: within every job stream, each host's subsequence
	// stays strictly seq-ascending (the chunk-reassembly invariant
	// postprocess.SnapshotView documents).
	sn := db2.Snapshot()
	for _, job := range sn.Jobs() {
		last := map[string]uint64{}
		sn.JobRows(job, func(row *wire.Scanned, seq uint64) bool {
			host := string(row.Value(row.Datagram, wire.FieldHost))
			if seq <= last[host] {
				t.Fatalf("job %s host %s: seq %d after %d", job, host, seq, last[host])
			}
			last[host] = seq
			return true
		})
	}
}

// TestSnapshotIsolatedFromSeal: a snapshot taken before Seal keeps serving
// the pre-seal view (head rows), one taken after serves the identical rows
// from the run — copy-on-write isolation of the shard run slices.
func TestSnapshotIsolatedFromSeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ms := sealCorpus(80)
	if err := db.InsertBatch(ms); err != nil {
		t.Fatal(err)
	}
	before := db.Snapshot()
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	after := db.Snapshot()

	for name, sn := range map[string]*Snapshot{"before": before, "after": after} {
		if sn.Count() != len(ms) {
			t.Fatalf("%s snapshot Count = %d", name, sn.Count())
		}
		n := 0
		sn.Iter(func(wire.Message) bool { n++; return true })
		if n != len(ms) {
			t.Fatalf("%s snapshot yields %d rows", name, n)
		}
		total := 0
		for _, job := range sn.Jobs() {
			sn.JobRows(job, func(*wire.Scanned, uint64) bool { total++; return true })
		}
		if total != len(ms) {
			t.Fatalf("%s snapshot JobRows covered %d rows", name, total)
		}
	}
}

// TestSealConcurrentWithReads feeds the race detector: inserts, seals, and
// snapshot scans overlap freely; afterwards every row is present exactly
// once.
func TestSealConcurrentWithReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ms := sealCorpus(1200)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < len(ms); i += 60 {
			if err := db.InsertBatch(ms[i : i+60]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := db.Seal(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			sn := db.Snapshot()
			n := 0
			sn.Iter(func(wire.Message) bool { n++; return true })
			if n != sn.Count() {
				t.Errorf("snapshot advertised %d rows, yielded %d", sn.Count(), n)
				return
			}
		}
	}()
	wg.Wait()
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if db.Count() != len(ms) {
		t.Fatalf("Count = %d, want %d", db.Count(), len(ms))
	}
	got := allRows(db)
	seen := make(map[wire.Header]bool, len(got))
	for _, m := range got {
		if seen[processOf(m)] {
			t.Fatalf("duplicate row %v", m.Header)
		}
		seen[processOf(m)] = true
	}
}

// TestResolveSetPathsFoldsSealArtifacts: run files and seal markers fold to
// their base path under the -db glob grammar, so a glob over a sealed
// store's directory never opens "siren.wal.run" as a phantom member.
func TestResolveSetPathsFoldsSealArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch(sealCorpus(50)); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The directory now holds segments, a lock, a seal marker, and run
	// files; the glob must fold them all to the one base path.
	got, err := ResolveSetPaths(filepath.Join(dir, "siren.wal*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != path {
		t.Fatalf("ResolveSetPaths = %v, want [%s]", got, path)
	}
	for _, artifact := range []string{
		path + ".seal-commit",
		path + ".seal-commit.tmp",
		runFilePath(path, 3, 1),
	} {
		if base := basePath(artifact); base != path {
			t.Fatalf("basePath(%s) = %q, want %q", artifact, base, path)
		}
	}
	// A base path that merely ends in ".run" must not be mangled by the
	// run-suffix folding ("data.run" is a legitimate base).
	if base := basePath(filepath.Join(dir, "data.run")); !strings.HasSuffix(base, "data.run") {
		t.Fatalf("basePath mangled a base ending in .run: %q", base)
	}
}

// benchOpenStore builds a store of n rows — sealed into runs or left as
// replayable WAL — then measures Open+Close. Sealed opens are O(index):
// the per-open cost must stay flat as n grows 10k → 1M, while replay grows
// linearly with it.
func benchOpenStore(b *testing.B, n int, sealed bool) {
	if n >= 1_000_000 && testing.Short() {
		b.Skip("1M-row open benchmark skipped in -short")
	}
	path := filepath.Join(b.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	batch := sealCorpus(4096)
	for done := 0; done < n; done += len(batch) {
		if done+len(batch) > n {
			batch = batch[:n-done]
		}
		if err := db.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if sealed {
		if err := db.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := OpenOptions(path, Options{Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if db.Count() != n {
			b.Fatalf("opened %d rows, want %d", db.Count(), n)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenSealed(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) { benchOpenStore(b, n, true) })
	}
}

func BenchmarkOpenReplay(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) { benchOpenStore(b, n, false) })
	}
}

// BenchmarkSeal prices the store's one rewrite transaction: n head rows over
// four shards frozen into runs — sort, block copies, fsyncs, commit marker,
// segment truncation. The inserts that refill the head run untimed; the
// previous generation is dropped untimed too, so the disk does not fill.
func BenchmarkSeal(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			db, err := OpenOptions(filepath.Join(b.TempDir(), "siren.wal"), Options{Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			corpus := sealCorpus(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := db.RetainSealedGenerations(1); err != nil {
					b.Fatal(err)
				}
				for done := 0; done < n; done += len(corpus) {
					if err := db.InsertBatch(corpus[:min(len(corpus), n-done)]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := db.Seal(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
