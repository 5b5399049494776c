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
	member, shard int // shard: index in the set snapshot's shard axis
	job, host     string
	bytes         string
	seq           uint64 // rebased: the member's offset plus its own seq
}

// setOracle is what a set snapshot must present, computed from the member
// snapshots and their LastSeqs alone.
type setOracle struct {
	rows     []oracleRow // every member row, suppressed or not, by rebased seq
	lastSeq  uint64
	jobs     []string
	stats    DedupStats
	shardOf  [][2]int // set shard index → (member, member-local shard)
	members  []*Snapshot
	suppress map[int]map[jobHost]bool
}

// buildSetOracle reads every member snapshot through its own accessors,
// rebases the seqs and applies the dedup rule of dedup.go independently:
// per (job, host) held by two or more members, the longest run (ties: the
// smallest rebased first seq) is canonical and every other run that is a
// sub-multiset of it is suppressed; the rest are conflicts.
func buildSetOracle(members []*Snapshot) *setOracle {
	o := &setOracle{suppress: make(map[int]map[jobHost]bool), members: members}
	var off uint64
	jobSet := make(map[string]bool)
	for m, sn := range members {
		for s := 0; s < sn.Shards(); s++ {
			gi := len(o.shardOf)
			o.shardOf = append(o.shardOf, [2]int{m, s})
			for _, job := range sn.ShardJobs(s) {
				sn.ShardJobRows(s, job, func(row *wire.Scanned, seq uint64) bool {
					o.rows = append(o.rows, oracleRow{
						member: m, shard: gi, job: job,
						host:  string(row.Value(row.Datagram, wire.FieldHost)),
						bytes: string(row.Datagram), seq: off + seq,
					})
					return true
				})
			}
		}
		for _, j := range sn.Jobs() {
			jobSet[j] = true
		}
		off += sn.LastSeq()
	}
	o.lastSeq = off
	for j := range jobSet {
		o.jobs = append(o.jobs, j)
	}
	sort.Strings(o.jobs)
	sort.Slice(o.rows, func(a, b int) bool { return o.rows[a].seq < o.rows[b].seq })

	type run struct {
		member, rows int
		first        uint64
		bag          map[string]int
	}
	runs := make(map[jobHost][]*run)
	for _, r := range o.rows {
		k := jobHost{r.job, r.host}
		var cur *run
		for _, x := range runs[k] {
			if x.member == r.member {
				cur = x
			}
		}
		if cur == nil {
			cur = &run{member: r.member, first: r.seq, bag: make(map[string]int)}
			runs[k] = append(runs[k], cur)
		}
		cur.rows++
		cur.bag[r.bytes]++
	}
	for k, rs := range runs {
		if len(rs) < 2 {
			continue
		}
		o.stats.OverlappingKeys++
		canon := rs[0]
		for _, r := range rs[1:] {
			if r.rows > canon.rows || (r.rows == canon.rows && r.first < canon.first) {
				canon = r
			}
		}
		for _, r := range rs {
			if r == canon {
				continue
			}
			contained := true
			for b, n := range r.bag {
				if canon.bag[b] < n {
					contained = false
				}
			}
			if !contained {
				o.stats.Conflicts++
				continue
			}
			if o.suppress[r.member] == nil {
				o.suppress[r.member] = make(map[jobHost]bool)
			}
			o.suppress[r.member][k] = true
			o.stats.SuppressedRuns++
			o.stats.SuppressedRows += r.rows
		}
	}
	return o
}

func (o *setOracle) suppressed(r oracleRow) bool { return o.suppress[r.member][jobHost{r.job, r.host}] }

// surviving returns the rows the merged view yields, by rebased seq, that
// keep passes.
func (o *setOracle) surviving(keep func(r oracleRow) bool) []oracleRow {
	var out []oracleRow
	for _, r := range o.rows {
		if !o.suppressed(r) && keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// buildOracleStores writes 1–3 member stores from seed: keys owned by one
// member each, rows inserted around one or two seals so every member holds
// sealed runs and a head; with two or more members, one key's run is copied
// as a shuffled sub-multiset into another member (a failover overlap) and
// another key gets a run of different rows in another member (a conflict).
func buildOracleStores(t *testing.T, seed int64) ([]string, Options) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(3)
	// One shard count for writing and reading: a changed count re-homes
	// sealed runs, which can split a member's run across two shards.
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
// failover overlap and one conflict.
func TestSetSnapshotMatchesMemberOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			set, err := OpenSet(buildOracleStores(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			members := make([]*Snapshot, len(set.Members()))
			for i, db := range set.Members() {
				members[i] = db.Snapshot()
			}
			o := buildSetOracle(members)
			t.Logf("%d members, %d rows, dedup %+v", len(members), len(o.rows), o.stats)
			checkSetSnapshot(t, set.Snapshot(), o)
		})
	}
}

func checkSetSnapshot(t *testing.T, ms *Snapshot, o *setOracle) {
	t.Helper()
	all := func(oracleRow) bool { return true }
	if got, want := ms.Count(), len(o.surviving(all)); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got := ms.LastSeq(); got != o.lastSeq {
		t.Errorf("LastSeq = %d, want %d", got, o.lastSeq)
	}
	if got := ms.Jobs(); !slices.Equal(got, o.jobs) {
		t.Errorf("Jobs = %v, want %v", got, o.jobs)
	}
	if len(o.members) > 1 {
		if got := ms.DedupStats(); got != o.stats {
			t.Errorf("DedupStats = %+v, want %+v", got, o.stats)
		}
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
	yielding := make(map[string]int)
	for i := 0; i < ms.Shards(); i++ {
		member, local := o.shardOf[i][0], o.shardOf[i][1]
		var wantJobs []string
		for _, job := range o.members[member].ShardJobs(local) {
			rows := o.surviving(func(r oracleRow) bool { return r.shard == i && r.job == job })
			if len(rows) > 0 {
				wantJobs = append(wantJobs, job)
				yielding[job]++
			}
		}
		if got := ms.ShardJobs(i); !slices.Equal(got, wantJobs) {
			t.Errorf("ShardJobs(%d) = %v, want %v", i, got, wantJobs)
		}
		for _, job := range o.jobs {
			want := o.surviving(func(r oracleRow) bool { return r.shard == i && r.job == job })
			var got []oracleRow
			ms.ShardJobRows(i, job, func(row *wire.Scanned, seq uint64) bool {
				got = append(got, oracleRow{bytes: string(row.Datagram), seq: seq})
				return true
			})
			checkRows(t, fmt.Sprintf("ShardJobRows(%d, %s)", i, job), got, want, true)
			n := ms.ShardJobLen(i, job)
			if memberLen := o.members[member].ShardJobLen(local, job); n != memberLen || len(got) > n {
				t.Errorf("ShardJobLen(%d, %s) = %d: member says %d, %d rows yielded", i, job, n, memberLen, len(got))
			}
		}
	}
	counts := ms.JobShardCounts()
	if len(counts) != len(yielding) {
		t.Errorf("JobShardCounts = %v, want %v", counts, yielding)
	}
	for job, n := range yielding {
		if counts[job] != n {
			t.Errorf("JobShardCounts[%s] = %d, want %d", job, counts[job], n)
		}
	}

	for _, job := range o.jobs {
		want := o.surviving(func(r oracleRow) bool { return r.job == job })
		var got []oracleRow
		ms.JobRows(job, func(row *wire.Scanned, seq uint64) bool {
			got = append(got, oracleRow{bytes: string(row.Datagram), seq: seq})
			return true
		})
		checkRows(t, "JobRows("+job+")", got, want, true)
	}
	var iter []oracleRow
	ms.Iter(func(m wire.Message) bool {
		iter = append(iter, oracleRow{bytes: string(wire.Encode(m))})
		return true
	})
	checkRows(t, "Iter", iter, o.surviving(all), false)
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
