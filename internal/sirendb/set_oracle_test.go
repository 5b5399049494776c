package sirendb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"siren/internal/wire"
)

// oracleRow is one member row as the member's own snapshot reports it, with
// the sequence number the merged view must give it.
type oracleRow struct {
	job   string
	bytes string
	seq   uint64 // rebased: the member's offset plus its own seq
}

// setOracle is what a set snapshot must present, computed from the member
// snapshots and their LastSeqs alone.
type setOracle struct {
	rows    []oracleRow // every member row, by rebased seq
	lastSeq uint64
	jobs    []string
	shardOf [][2]int // set shard index → (member, member-local shard)
	offs    []uint64 // member → its seq rebase
	members []*Snapshot
}

// buildSetOracle reads every member snapshot through its own accessors and
// rebases the seqs. Rows two members hold are kept twice: the set snapshot
// removes nothing.
func buildSetOracle(members []*Snapshot) *setOracle {
	o := &setOracle{members: members}
	var off uint64
	jobSet := make(map[string]bool)
	for m, sn := range members {
		for s := 0; s < sn.Shards(); s++ {
			o.shardOf = append(o.shardOf, [2]int{m, s})
		}
		for _, job := range sn.Jobs() {
			jobSet[job] = true
			sn.JobRows(job, func(row *wire.Scanned, seq uint64) bool {
				o.rows = append(o.rows, oracleRow{job: job, bytes: string(row.Datagram), seq: off + seq})
				return true
			})
		}
		o.offs = append(o.offs, off)
		off += sn.LastSeq()
	}
	o.lastSeq = off
	for j := range jobSet {
		o.jobs = append(o.jobs, j)
	}
	sort.Strings(o.jobs)
	sort.Slice(o.rows, func(a, b int) bool { return o.rows[a].seq < o.rows[b].seq })
	return o
}

// where returns the rows, by rebased seq, that keep passes.
func (o *setOracle) where(keep func(r oracleRow) bool) []oracleRow {
	var out []oracleRow
	for _, r := range o.rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// cursorRows drains a shard cursor, adding off to every seq.
func cursorRows(c *Cursor, off uint64) []oracleRow {
	var out []oracleRow
	for m, seq, ok := c.Next(); ok; m, seq, ok = c.Next() {
		out = append(out, oracleRow{bytes: string(wire.Encode(m)), seq: off + seq})
	}
	return out
}

// buildOracleStores writes 1–3 member stores from seed: keys owned by one
// member each, rows inserted around one or two seals so every member holds
// sealed runs and a head; with two or more members, one key's run is copied
// as a shuffled sub-multiset into another member (a failover overlap) and
// another key gets a run of different rows in another member.
func buildOracleStores(t *testing.T, seed int64) ([]string, Options) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(3)
	// The shard count the members are written with; the test reads them at
	// this count and at another, which re-homes sealed runs and can split a
	// member's run across two shards.
	opts := Options{Shards: 1 + r.Intn(3)}
	perMember := make([][]wire.Message, n)
	type key struct {
		job, host string
		rows      []wire.Message
		member    int
	}
	var keys []*key
	for j, jobs := 0, 4+r.Intn(5); j < jobs; j++ {
		for h, hosts := 0, 1+r.Intn(3); h < hosts; h++ {
			k := &key{job: fmt.Sprintf("job-%d", j), host: fmt.Sprintf("nid%03d", h), member: r.Intn(n)}
			for i, rows := 0, 1+r.Intn(6); i < rows; i++ {
				m := setMsg(k.job, k.host, 100+h, r.Intn(4))
				k.rows = append(k.rows, m) // a repeated i makes a duplicate row
			}
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		perMember[k.member] = append(perMember[k.member], k.rows...)
	}
	if n > 1 {
		r.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		var overlap, conflict *key
		for _, k := range keys {
			switch {
			case overlap == nil && len(k.rows) >= 2:
				overlap = k
			case conflict == nil && k != overlap:
				conflict = k
			}
		}
		if overlap != nil {
			copyTo := (overlap.member + 1 + r.Intn(n-1)) % n
			part := slices.Clone(overlap.rows)
			r.Shuffle(len(part), func(a, b int) { part[a], part[b] = part[b], part[a] })
			perMember[copyTo] = append(perMember[copyTo], part[:1+r.Intn(len(part))]...)
		}
		if conflict != nil {
			other := (conflict.member + 1 + r.Intn(n-1)) % n
			for i := 0; i < 2; i++ {
				m := setMsg(conflict.job, conflict.host, 999, 50+i)
				perMember[other] = append(perMember[other], m)
			}
		}
	}

	dir := t.TempDir()
	paths := make([]string, n)
	for m := range paths {
		paths[m] = filepath.Join(dir, fmt.Sprintf("member-%d.wal", m))
		db, err := OpenOptions(paths[m], opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := perMember[m]
		cuts := []int{r.Intn(len(rows) + 1), r.Intn(len(rows) + 1)}
		sort.Ints(cuts)
		for i, msg := range rows {
			for _, c := range cuts {
				if i == c {
					if err := db.Seal(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Insert(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths, opts
}

// TestSetSnapshotMatchesMemberOracle checks every accessor of a set's
// snapshot against an oracle computed from the member snapshots alone, over
// generated stores: one to three members, sealed runs plus a head, one
// failover overlap and one key whose rows differ between members. Each set is
// read at the shard count it was written with and again reopened at another.
func TestSetSnapshotMatchesMemberOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			paths, opts := buildOracleStores(t, seed)
			for _, shards := range []int{opts.Shards, 1 + (opts.Shards+int(seed%3))%4} {
				set, err := OpenSet(paths, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				members := make([]*Snapshot, len(set.Members()))
				for i, db := range set.Members() {
					members[i] = db.Snapshot()
				}
				o := buildSetOracle(members)
				t.Logf("shards=%d: %d members, %d rows", shards, len(members), len(o.rows))
				checkSetSnapshot(t, set.Snapshot(), o)
				if err := set.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func checkSetSnapshot(t *testing.T, ms *Snapshot, o *setOracle) {
	t.Helper()
	if got, want := ms.Count(), len(o.rows); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got := ms.LastSeq(); got != o.lastSeq {
		t.Errorf("LastSeq = %d, want %d", got, o.lastSeq)
	}
	if got := ms.Jobs(); !slices.Equal(got, o.jobs) {
		t.Errorf("Jobs = %v, want %v", got, o.jobs)
	}

	// JobsChangedSince at every member boundary, around it, and between.
	marks := []uint64{0, 1, o.lastSeq - 1, o.lastSeq, o.lastSeq + 5}
	var off uint64
	for _, sn := range o.members {
		off += sn.LastSeq()
		marks = append(marks, off-1, off, off+1, off-sn.LastSeq()/2)
	}
	for _, w := range marks {
		set := make(map[string]bool)
		for _, r := range o.rows {
			if r.seq > w {
				set[r.job] = true
			}
		}
		want := make([]string, 0, len(set))
		for j := range set {
			want = append(want, j)
		}
		sort.Strings(want)
		if got := ms.JobsChangedSince(w); !slices.Equal(got, want) {
			t.Errorf("JobsChangedSince(%d) = %v, want %v", w, got, want)
		}
	}

	if ms.Shards() != len(o.shardOf) {
		t.Fatalf("Shards = %d, want %d", ms.Shards(), len(o.shardOf))
	}
	for i := 0; i < ms.Shards(); i++ {
		member, local := o.shardOf[i][0], o.shardOf[i][1]
		want := cursorRows(o.members[member].ShardCursor(local), o.offs[member])
		checkRows(t, fmt.Sprintf("ShardCursor(%d)", i), cursorRows(ms.ShardCursor(i), 0), want, true)
	}

	jobRows := 0
	for _, job := range o.jobs {
		want := o.where(func(r oracleRow) bool { return r.job == job })
		var got []oracleRow
		ms.JobRows(job, func(row *wire.Scanned, seq uint64) bool {
			got = append(got, oracleRow{bytes: string(row.Datagram), seq: seq})
			return true
		})
		checkRows(t, "JobRows("+job+")", got, want, true)
		jobRows += len(got)
		memberLen := 0
		for _, sn := range o.members {
			memberLen += sn.JobLen(job)
		}
		if n := ms.JobLen(job); n != memberLen || len(got) > n {
			t.Errorf("JobLen(%s) = %d: members say %d, %d rows yielded", job, n, memberLen, len(got))
		}
	}
	var iter []oracleRow
	ms.Iter(func(m wire.Message) bool {
		iter = append(iter, oracleRow{bytes: string(wire.Encode(m))})
		return true
	})
	checkRows(t, "Iter", iter, o.rows, false)
	if len(iter) != ms.Count() || jobRows != ms.Count() {
		t.Errorf("Iter yielded %d rows and JobRows %d over all jobs, Count = %d", len(iter), jobRows, ms.Count())
	}
	if err := ms.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
}

// checkRows compares a stream with the oracle's rows, bytes in order and,
// when withSeq, the rebased seqs too.
func checkRows(t *testing.T, what string, got, want []oracleRow, withSeq bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if got[i].bytes != want[i].bytes || (withSeq && got[i].seq != want[i].seq) {
			t.Errorf("%s: row %d = (%q, seq %d), want (%q, seq %d)", what, i, got[i].bytes, got[i].seq, want[i].bytes, want[i].seq)
			return
		}
	}
}
