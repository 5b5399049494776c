package sirendb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"siren/internal/membership"
	"siren/internal/wire"
)

func setMsg(job, host string, pid int, seq int) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: job, StepID: "0", PID: pid, Hash: "beef", Host: host,
			Time: 1733900000 + int64(seq), Layer: wire.LayerSelf, Type: wire.TypeMetadata,
			Seq: 0, Total: 1,
		},
		Content: []byte(fmt.Sprintf("EXE=/bin/x-%s-%s-%d", job, host, seq)),
	}
}

// TestMergedSnapshotNoInterleavingWithinJob pins the merged ordering
// contract: when one job's hosts land in different member databases, the
// merged JobRows stream yields every member-0 row before any member-1 row —
// member boundaries are strict sequence boundaries, and each member's rows
// stay in that member's insertion order.
func TestMergedSnapshotNoInterleavingWithinJob(t *testing.T) {
	db0, _ := Open("")
	db1, _ := Open("")
	defer db0.Close()
	defer db1.Close()

	// One job, three hosts: a and b in member 0, c in member 1. Interleave
	// inserts with an unrelated job so sequence numbers are not trivially
	// dense for job J.
	var want0, want1 []string
	for i := 0; i < 10; i++ {
		h := "a"
		if i%2 == 1 {
			h = "b"
		}
		m := setMsg("J", h, 100+i, i)
		if err := db0.Insert(m); err != nil {
			t.Fatal(err)
		}
		want0 = append(want0, string(m.Content))
		if err := db0.Insert(setMsg("other", "a", 900+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m := setMsg("J", "c", 200+i, i)
		if err := db1.Insert(m); err != nil {
			t.Fatal(err)
		}
		want1 = append(want1, string(m.Content))
	}

	ms := MergeSnapshots([]*Snapshot{db0.Snapshot(), db1.Snapshot()})
	if ms.Count() != 30 {
		t.Fatalf("merged Count = %d, want 30", ms.Count())
	}

	var got []string
	ms.JobRows("J", func(row *wire.Scanned, _ uint64) bool {
		got = append(got, string(row.Datagram[row.Content:]))
		return true
	})
	if len(got) != len(want0)+len(want1) {
		t.Fatalf("JobRows yielded %d rows, want %d", len(got), len(want0)+len(want1))
	}
	for i, w := range append(append([]string{}, want0...), want1...) {
		if got[i] != w {
			t.Fatalf("row %d = %q, want %q: member rows interleaved or reordered", i, got[i], w)
		}
	}

	// The rebased sequence numbers must reproduce the same contract on the
	// shard-cursor surface: every member-0 seq < every member-1 seq, and
	// seqs are strictly increasing within one merged shard's stream.
	member0Shards := db0.StoreShards()
	var max0, min1 uint64
	min1 = ^uint64(0)
	for i := 0; i < ms.Shards(); i++ {
		var last uint64
		c := ms.ShardCursor(i)
		for _, seq, ok := c.Next(); ok; _, seq, ok = c.Next() {
			if seq <= last {
				t.Fatalf("merged shard %d: seq %d not strictly increasing (last %d)", i, seq, last)
			}
			last = seq
			if i < member0Shards {
				max0 = max(max0, seq)
			} else {
				min1 = min(min1, seq)
			}
		}
	}
	if max0 >= min1 {
		t.Errorf("member-0 max rebased seq %d >= member-1 min %d", max0, min1)
	}
}

// TestOpenSetPersistent partitions one campaign across three WAL-backed
// stores the way a three-member roster would, reopens them as a
// set, and checks the union: every message exactly once, member order
// preserved, Jobs merged.
func TestOpenSetPersistent(t *testing.T) {
	const parts = 3
	tbl, err := membership.ParseRoster("r0=127.0.0.1:9000,r1=127.0.0.1:9001,r2=127.0.0.1:9002")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, parts)
	dbs := make([]*DB, parts)
	for k := range paths {
		paths[k] = filepath.Join(dir, fmt.Sprintf("member-%d.wal", k))
		db, err := OpenOptions(paths[k], Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		dbs[k] = db
	}
	total := 0
	for j := 0; j < 12; j++ {
		for h := 0; h < 2; h++ {
			m := setMsg(fmt.Sprintf("job-%d", j), fmt.Sprintf("nid%06d", h), j, h)
			k := tbl.RankedOwners([]byte(m.JobID), []byte(m.Host))[0]
			if err := dbs[k].Insert(m); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	for _, db := range dbs {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	set, err := OpenSet(paths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Count() != total {
		t.Fatalf("set Count = %d, want %d", set.Count(), total)
	}
	ms := set.Snapshot()
	seen := make(map[string]int)
	ms.Iter(func(m wire.Message) bool {
		seen[string(m.Content)]++
		return true
	})
	if len(seen) != total {
		t.Errorf("merged Iter yielded %d distinct messages, want %d", len(seen), total)
	}
	for c, n := range seen {
		if n != 1 {
			t.Errorf("message %q appeared %d times in the merged snapshot", c, n)
		}
	}
	if jobs := ms.Jobs(); len(jobs) != 12 {
		t.Errorf("merged Jobs() = %d jobs, want 12", len(jobs))
	}
}

// TestOpenSetMemberLocked: a member still held by a running receiver fails
// the whole set open, releasing the members opened before it.
func TestOpenSetMemberLocked(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.wal")
	b := filepath.Join(dir, "b.wal")
	holder, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()

	if _, err := OpenSet([]string{a, b}, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("OpenSet over a locked member: err = %v, want ErrLocked", err)
	}
	// Member a must have been released: a fresh open succeeds.
	db, err := Open(a)
	if err != nil {
		t.Fatalf("member opened before the failure was not released: %v", err)
	}
	db.Close()
}

// TestOpenSetSingleMemberMatchesDB: a one-element set is the degenerate
// case cmd/siren-analyze uses for classic single-receiver WALs; its merged
// snapshot must present exactly the member's rows with unshifted seqs.
func TestOpenSetSingleMemberMatchesDB(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "solo.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Insert(setMsg("J", "a", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := allRows(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	set, err := OpenSet([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ms := set.Snapshot()
	var got []wire.Message
	ms.Iter(func(m wire.Message) bool { got = append(got, m); return true })
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Content) != string(want[i].Content) {
			t.Errorf("row %d content mismatch", i)
		}
	}
	if ms.LastSeq() != 5 {
		t.Errorf("LastSeq = %d, want 5 (unshifted)", ms.LastSeq())
	}
}

// TestResolveSetPathsRefusesMissingStore: a literal -db element that no
// on-disk artifact folds back to is an error, like a pattern matching
// nothing — opening it would create an empty store and report a zero-row
// campaign as success. A literal naming a store resolves verbatim, even one
// whose base path ends in digits.
func TestResolveSetPathsRefusesMissingStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "siren.0")
	db, err := OpenOptions(path, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ResolveSetPaths(path)
	if err != nil || len(got) != 1 || got[0] != path {
		t.Fatalf("ResolveSetPaths(%s) = %v, %v; want [%s]", path, got, err, path)
	}
	for _, spec := range []string{
		filepath.Join(dir, "typo.wal"),
		path + "," + filepath.Join(dir, "typo.wal"),
		filepath.Join(dir, "siren"), // "siren.0" is a base path here, not segment 0 of "siren"
		filepath.Join(dir, "no-such-dir", "siren.wal"),
	} {
		if got, err := ResolveSetPaths(spec); err == nil {
			t.Errorf("ResolveSetPaths(%s) = %v, want an error: no store there", spec, got)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if basePath(e.Name()) != "siren.0" {
			t.Errorf("resolving created %s", e.Name())
		}
	}
}
