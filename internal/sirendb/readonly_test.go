// Read-only opens: shared-lock semantics (readers coexist, writers are
// refused and vice versa), mutation refusal, and the serving path's
// OpenSet over live store directories.
package sirendb

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"siren/internal/wire"
)

// buildSealedStore writes a store with one sealed generation plus a WAL
// head and closes it, returning the base path and the full corpus.
func buildSealedStore(t *testing.T, n, sealAt int) (string, []wire.Message) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := sealCorpus(n)
	if err := db.InsertBatch(ms[:sealAt]); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch(ms[sealAt:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ms
}

func TestReadOnlyOpenServesAndRefusesWrites(t *testing.T) {
	path, ms := buildSealedStore(t, 200, 120)

	db, err := OpenOptions(path, Options{Shards: 2, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Reads: both tiers present and complete.
	assertAll(t, db, ms)
	if st := db.Stats(); st.SealedRows != 120 || st.Rows != 200 {
		t.Fatalf("Stats = %+v", st)
	}
	if got := jobRows(db, "job-1"); len(got) != 40 {
		t.Fatalf("JobRows = %d rows, want 40", len(got))
	}
	sn := db.Snapshot()
	if sn.Count() != 200 {
		t.Fatalf("snapshot Count = %d", sn.Count())
	}

	// Writes: refused with ErrReadOnly, store unchanged.
	if err := db.Insert(ms[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert = %v, want ErrReadOnly", err)
	}
	if err := db.InsertBatch(ms[:2]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertBatch = %v, want ErrReadOnly", err)
	}
	if err := db.Seal(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Seal = %v, want ErrReadOnly", err)
	}
	if _, err := db.RetainSealedGenerations(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RetainSealedGenerations = %v, want ErrReadOnly", err)
	}
	if err := db.Sync(); err != nil { // nothing to make durable; must not fail
		t.Fatalf("Sync = %v", err)
	}
	if db.Count() != 200 {
		t.Fatalf("Count changed to %d", db.Count())
	}
}

// TestReadOnlySharedLock: two read-only opens coexist; a writable open is
// refused while any reader holds the shared lock; a read-only open is
// refused while a writer holds the exclusive lock.
func TestReadOnlySharedLock(t *testing.T) {
	path, ms := buildSealedStore(t, 100, 60)

	r1, err := OpenOptions(path, Options{Shards: 2, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OpenOptions(path, Options{Shards: 2, ReadOnly: true})
	if err != nil {
		t.Fatalf("second concurrent read-only open: %v", err)
	}
	assertAll(t, r1, ms)
	assertAll(t, r2, ms)

	if _, err := OpenOptions(path, Options{Shards: 2}); !errors.Is(err, ErrLocked) {
		t.Fatalf("writable open under readers = %v, want ErrLocked", err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOptions(path, Options{Shards: 2}); !errors.Is(err, ErrLocked) {
		t.Fatalf("writable open under remaining reader = %v, want ErrLocked", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	w, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatalf("writable open after readers closed: %v", err)
	}
	defer w.Close()
	if _, err := OpenOptions(path, Options{Shards: 2, ReadOnly: true}); !errors.Is(err, ErrLocked) {
		t.Fatalf("read-only open under writer = %v, want ErrLocked", err)
	}
}

// TestOpenRefusesFileAtBasePath: the store lives in "<path>.<suffix>" files
// only, so a regular file at the base path itself is somebody else's data
// (or a mistyped -db). Opening an empty store beside it would report a
// zero-row campaign as success; both open modes must refuse instead.
func TestOpenRefusesFileAtBasePath(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"writable", Options{Shards: 2}},
		{"readonly", Options{Shards: 2, ReadOnly: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, _ := buildSealedStore(t, 50, 30)
			if err := os.WriteFile(path, []byte("not a store"), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := OpenOptions(path, tc.opts)
			if err == nil {
				db.Close()
				t.Fatal("open ignored a regular file at the base path")
			}
			if want := path + " is a file, not a store base path"; !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want it to contain %q", err, want)
			}
			// The refusal released the lock and touched nothing.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			db, err = OpenOptions(path, tc.opts)
			if err != nil {
				t.Fatalf("open after removing the file: %v", err)
			}
			defer db.Close()
			if db.Count() != 50 {
				t.Fatalf("Count = %d, want 50", db.Count())
			}
		})
	}
}

// TestOpenSetReadOnly: the serving tier opens the receivers' stores
// read-only while they may still be written elsewhere — two read-only sets
// coexist, a writable set is refused while they serve.
func TestOpenSetReadOnly(t *testing.T) {
	p1, ms1 := buildSealedStore(t, 80, 40)
	p2, ms2 := buildSealedStore(t, 60, 20)
	paths := []string{p1, p2}

	s1, err := OpenSet(paths, Options{Shards: 2, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSet(paths, Options{Shards: 2, ReadOnly: true})
	if err != nil {
		t.Fatalf("second concurrent read-only set: %v", err)
	}

	for _, s := range []*DBSet{s1, s2} {
		if s.Count() != len(ms1)+len(ms2) {
			t.Fatalf("set Count = %d, want %d", s.Count(), len(ms1)+len(ms2))
		}
		for _, db := range s.Members() {
			if err := db.Insert(ms1[0]); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("member Insert = %v, want ErrReadOnly", err)
			}
		}
	}
	snaps := make([]*Snapshot, len(s1.Members()))
	for i, db := range s1.Members() {
		snaps[i] = db.Snapshot()
	}
	merged := MergeSnapshots(snaps)
	n := 0
	merged.Iter(func(m wire.Message) bool { n++; return true })
	if n != len(ms1)+len(ms2) {
		t.Fatalf("merged snapshot yields %d rows", n)
	}

	if _, err := OpenSet(paths, Options{Shards: 2}); !errors.Is(err, ErrLocked) {
		t.Fatalf("writable set under read-only sets = %v, want ErrLocked", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(paths, Options{Shards: 2}); !errors.Is(err, ErrLocked) {
		t.Fatalf("writable set under remaining read-only set = %v, want ErrLocked", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := OpenSet(paths, Options{Shards: 2})
	if err != nil {
		t.Fatalf("writable set after readers closed: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
