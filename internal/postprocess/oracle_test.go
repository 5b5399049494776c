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
// failover-style partial copy of one (job, host) run in a second member.
// ConsolidateSnapshot's records and Stats must equal one sorted
// consolidateRows pass over every row the snapshot holds, in sequence order.
// Where a copy was planted, they must also equal those of the same
// deployment without it: rows stored twice change nothing, even where two
// generated processes share a record header and their chunks conflict.
func TestConsolidateMatchesWholeStoreOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			d := oracleDeployment(r)
			snap := d.build(t, r, true)

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
			if !d.overlap {
				return
			}
			once, onceStats := ConsolidateSnapshot(d.build(t, r, false), StreamOptions{})
			if gotStats != onceStats {
				t.Errorf("with the failover copy: stats %+v, without it %+v", gotStats, onceStats)
			}
			if !reflect.DeepEqual(got, once) {
				t.Errorf("with the failover copy: %d records differ from the %d without it", len(got), len(once))
			}
		})
	}
}

// deployment is a random multi-member deployment: each member's rows in
// insertion order, and which of them are a planted failover copy.
type deployment struct {
	members [][]wire.Message
	copies  [][]bool // copies[m][i]: members[m][i] repeats a row another member holds
	overlap bool     // a copy was planted
}

// oracleDeployment draws one random deployment.
func oracleDeployment(r *rand.Rand) *deployment {
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
	d := &deployment{members: make([][]wire.Message, members), copies: make([][]bool, members)}
	add := func(m int, msgs []wire.Message, copied bool) {
		d.members[m] = append(d.members[m], msgs...)
		for range msgs {
			d.copies[m] = append(d.copies[m], copied)
		}
	}
	owner := make(map[key]int, len(keys))
	for _, k := range keys {
		owner[k] = r.Intn(members)
		add(owner[k], runs[k], false)
	}

	// A failover leaves part of one run in a second member as well.
	if members > 1 {
		for _, k := range keys {
			if run := runs[k]; len(run) >= 2 {
				part := slices.Clone(run)
				r.Shuffle(len(part), func(a, b int) { part[a], part[b] = part[b], part[a] })
				add((owner[k]+1+r.Intn(members-1))%members, part[:len(part)/2], true)
				d.overlap = true
				break
			}
		}
	}
	for m, msgs := range d.members {
		r.Shuffle(len(msgs), func(a, b int) {
			msgs[a], msgs[b] = msgs[b], msgs[a]
			d.copies[m][a], d.copies[m][b] = d.copies[m][b], d.copies[m][a]
		})
	}
	return d
}

// build stores the deployment, its planted copies only withCopies, and
// returns the merged snapshot. Every member but member 0 is one in-memory
// store; member 0 seals a third of its rows, leaves a third in the WAL, and
// is reopened at another shard count for the rest. Rows keep their relative
// order either way.
func (d *deployment) build(t *testing.T, r *rand.Rand, withCopies bool) *sirendb.Snapshot {
	t.Helper()
	snaps := make([]*sirendb.Snapshot, len(d.members))
	for m, all := range d.members {
		var msgs []wire.Message
		for i, msg := range all {
			if withCopies || !d.copies[m][i] {
				msgs = append(msgs, msg)
			}
		}
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
	return sirendb.MergeSnapshots(snaps)
}

// oracleProcesses returns the datagrams of one to three processes of job on
// host. PIDs and times come from small ranges, so processes of one job tie
// on (Time, JobID, PID, ExeHash) across hosts and PIDs repeat.
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
	jr := consolidateRows(encodeMessages(msgs))
	SortRecords(jr.Records)
	stats := Stats{Messages: jr.Messages, Records: jr.Reassembled, ChunkConflicts: jr.ChunkConflicts}
	countRecordStats(&stats, jr.Records)
	return jr.Records, stats
}
