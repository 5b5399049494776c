package postprocess

import (
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"siren/internal/sirendb"
	"siren/internal/wire"
)

// TestConsolidateMatchesWholeStoreOracle pins the streaming consolidation to
// one whole-store pass over random deployments: multi-host jobs split over
// one to three member stores with random shard counts, some InsertShard
// batches misrouted to a shard their rows do not hash to, one member sealed
// and then reopened at another shard count, and, with two or more members, a
// failover-style partial copy of one (job, host) run in a second member,
// deduped. ConsolidateSnapshot's records and Stats must equal one sorted
// consolidateRows pass over every row the snapshot holds, in sequence order.
func TestConsolidateMatchesWholeStoreOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			snap, overlap := oracleDeployment(t, r)

			if overlap {
				st := snap.DedupOverlaps()
				if st.SuppressedRuns == 0 || st.Conflicts != 0 {
					t.Fatalf("failover overlap not deduped: %+v", st)
				}
			}
			want, wantStats := wholeStorePass(snap)
			got, gotStats := ConsolidateSnapshot(snap, StreamOptions{Workers: 1 + r.Intn(3)})
			if err := snap.Err(); err != nil {
				t.Fatal(err)
			}
			if wantStats.Messages == 0 {
				t.Fatal("empty deployment")
			}
			if gotStats != wantStats {
				t.Errorf("stats %+v, want %+v", gotStats, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("%d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("record %d diverged:\nstream %+v\noracle %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// oracleDeployment builds one random deployment and returns its merged
// snapshot, and whether a failover-style overlap was planted in it.
func oracleDeployment(t *testing.T, r *rand.Rand) (*sirendb.Snapshot, bool) {
	t.Helper()
	members := 1 + r.Intn(3)

	// Every (job, host) run goes to one random member, whole.
	type key struct{ job, host string }
	runs := make(map[key][]wire.Message)
	var keys []key
	for j := range 3 + r.Intn(5) {
		job := fmt.Sprintf("job-%02d", j)
		for h := range 1 + r.Intn(3) {
			k := key{job, fmt.Sprintf("nid%04d", r.Intn(8)+10*h)}
			keys = append(keys, k)
			runs[k] = oracleProcesses(r, k.job, k.host)
		}
	}
	perMember := make([][]wire.Message, members)
	owner := make(map[key]int, len(keys))
	for _, k := range keys {
		owner[k] = r.Intn(members)
		perMember[owner[k]] = append(perMember[owner[k]], runs[k]...)
	}

	// A failover leaves part of one run in a second member as well.
	overlap := false
	if members > 1 {
		for _, k := range keys {
			if run := runs[k]; len(run) >= 2 {
				part := slices.Clone(run)
				r.Shuffle(len(part), func(a, b int) { part[a], part[b] = part[b], part[a] })
				other := (owner[k] + 1 + r.Intn(members-1)) % members
				perMember[other] = append(perMember[other], part[:len(part)/2]...)
				overlap = true
				break
			}
		}
	}

	snaps := make([]*sirendb.Snapshot, members)
	for m, msgs := range perMember {
		r.Shuffle(len(msgs), func(a, b int) { msgs[a], msgs[b] = msgs[b], msgs[a] })
		shards := 1 + r.Intn(4)
		if m > 0 {
			db, err := sirendb.OpenOptions("", sirendb.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			oracleInsert(t, r, db, shards, msgs)
			snaps[m] = db.Snapshot()
			continue
		}
		// Member 0: seal a third of its rows, leave a third in the WAL,
		// reopen at another shard count and add the rest to the new head.
		path := filepath.Join(t.TempDir(), "siren.wal")
		db, err := sirendb.OpenOptions(path, sirendb.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		third := len(msgs) / 3
		oracleInsert(t, r, db, shards, msgs[:third])
		if third > 0 {
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		oracleInsert(t, r, db, shards, msgs[third:2*third])
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		shards = shards%4 + 1
		db, err = sirendb.OpenOptions(path, sirendb.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		oracleInsert(t, r, db, shards, msgs[2*third:])
		snaps[m] = db.Snapshot()
	}
	return sirendb.MergeSnapshots(snaps), overlap
}

// oracleProcesses returns the datagrams of one to three processes of job on
// host. PIDs and times come from small ranges, so processes of one job tie
// on the (Time, JobID, PID, ExeHash) sort key across hosts and PIDs repeat.
func oracleProcesses(r *rand.Rand, job, host string) []wire.Message {
	var out []wire.Message
	for range 1 + r.Intn(3) {
		h := wire.Header{
			JobID: job, StepID: fmt.Sprint(r.Intn(2)), PID: 100 + r.Intn(4),
			Hash: fmt.Sprintf("%04x", r.Intn(3)), Host: host,
			Time: 1733900000 + int64(r.Intn(3)), Layer: wire.LayerSelf,
		}
		h.Type = wire.TypeMetadata
		out = append(out, wire.Chunk(h, []byte(fmt.Sprintf("EXE=/users/u%d/app\nCATEGORY=user\nUID=%d\n", h.PID, 1000+r.Intn(3))), 0)...)
		h.Type = wire.TypeObjects
		out = append(out, wire.Chunk(h, []byte("/opt/siren/lib/siren.so\n/lib64/libc.so.6\n/lib64/libm.so.6\n"), 12+r.Intn(40))...)
		h.Type = wire.TypeFileH
		out = append(out, wire.Chunk(h, []byte(fmt.Sprintf("3:%s%d:x", host, h.PID)), 0)...)
	}
	return out
}

// oracleInsert stores msgs in batches of one to eight rows; one batch in five
// goes through InsertShard to a random shard, misrouted unless the draw
// happens to match the hash.
func oracleInsert(t *testing.T, r *rand.Rand, db *sirendb.DB, shards int, msgs []wire.Message) {
	t.Helper()
	for len(msgs) > 0 {
		n := min(1+r.Intn(8), len(msgs))
		var err error
		if r.Intn(5) == 0 {
			err = db.InsertShard(r.Intn(shards), msgs[:n])
		} else {
			err = db.InsertBatch(msgs[:n])
		}
		if err != nil {
			t.Fatal(err)
		}
		msgs = msgs[n:]
	}
}

// wholeStorePass consolidates every row of snap at once, in sequence order,
// read through the shard cursors rather than the per-job streams.
func wholeStorePass(snap *sirendb.Snapshot) ([]*ProcessRecord, Stats) {
	type seqMsg struct {
		seq uint64
		m   wire.Message
	}
	var all []seqMsg
	for i := range snap.Shards() {
		c := snap.ShardCursor(i)
		for m, seq, ok := c.Next(); ok; m, seq, ok = c.Next() {
			all = append(all, seqMsg{seq, m})
		}
	}
	slices.SortFunc(all, func(a, b seqMsg) int { return cmp.Compare(a.seq, b.seq) })
	msgs := make([]wire.Message, len(all))
	for i := range all {
		msgs[i] = all[i].m
	}
	out, nRecords := consolidateRows(encodeMessages(msgs))
	SortRecords(out)
	stats := Stats{Messages: len(msgs), Records: nRecords}
	countRecordStats(&stats, out)
	return out, stats
}
