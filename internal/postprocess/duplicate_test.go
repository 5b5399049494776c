package postprocess

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"siren/internal/wire"
)

// dupJob returns the rows of one campaign-shaped job, in send order: on
// each of two hosts, three processes sending their constructor records —
// METADATA, FILE_H, OBJECTS and MAPS, the last two in several chunks — and
// on the first host one PID reused by a second process of the same
// executable, five seconds later.
func dupJob(job string) []wire.Message {
	var out []wire.Message
	proc := func(host string, pid int, t int64) {
		h := wire.Header{JobID: job, StepID: "0", PID: pid, Hash: fmt.Sprintf("%x", 0xbee0+pid%3),
			Host: host, Time: t, Layer: wire.LayerSelf}
		h.Type = wire.TypeMetadata
		out = append(out, wire.Chunk(h, []byte(fmt.Sprintf("EXE=/users/u1/app%d\nCATEGORY=user\nPPID=1\nUID=1000\n", pid%3)), 0)...)
		h.Type = wire.TypeFileH
		out = append(out, wire.Chunk(h, []byte(fmt.Sprintf("3:%s%d:x", host, pid)), 0)...)
		h.Type = wire.TypeObjects
		out = append(out, wire.Chunk(h, []byte("/opt/siren/lib/siren.so\n/lib64/libc.so.6\n/lib64/libm.so.6\n"), 150)...)
		h.Type = wire.TypeMaps
		out = append(out, wire.Chunk(h, []byte(fmt.Sprintf(
			"7f00-7f10 r-xp 00000000 08:01 %d /users/u1/app%d\n7f10-7f20 r-xp 00000000 08:01 12 /lib64/libc.so.6\n", pid, pid%3)), 160)...)
	}
	for i, host := range []string{"nid0001", "nid0002"} {
		for p := range 3 {
			proc(host, 100+10*i+p, 1733900000+int64(p))
		}
	}
	proc("nid0001", 100, 1733900005) // PID 100 again: a second process instance
	return out
}

// TestDuplicateRowsChangeNothing is the property the merge-back of a
// failover rests on (DESIGN.md §11): re-inserting any sub-multiset of a
// job's rows, anywhere among them, leaves the consolidated records and the
// counted messages as they were, and counts no conflict — while a repeat
// whose content differs by one byte counts exactly one.
func TestDuplicateRowsChangeNothing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, job := range []string{"4200", "4201", "4202"} {
		rows := dupJob(job)
		want := consolidateRows(encodeMessages(rows))
		SortRecords(want.Records)
		if want.Messages != len(rows) || want.ChunkConflicts != 0 || len(want.Records) != 7 {
			t.Fatalf("job %s: %d messages, %d conflicts, %d processes from %d rows, want %d, 0, 7",
				job, want.Messages, want.ChunkConflicts, len(want.Records), len(rows), len(rows))
		}
		for trial := range 50 {
			// Each row repeated zero to two times; one row exactly once, so
			// a flipped copy of it has one chunk to conflict with.
			copies := make([]int, len(rows))
			for i := range copies {
				copies[i] = r.Intn(3)
			}
			once := r.Intn(len(rows))
			copies[once] = 1
			dup := slices.Clone(rows)
			for i, n := range copies {
				for range n {
					dup = slices.Insert(dup, r.Intn(len(dup)+1), rows[i])
				}
			}

			got := consolidateRows(encodeMessages(dup))
			SortRecords(got.Records)
			if got.Messages != len(rows) || got.ChunkConflicts != 0 {
				t.Fatalf("job %s trial %d: %d rows with repeats counted %d messages and %d conflicts, want %d and 0",
					job, trial, len(dup), got.Messages, got.ChunkConflicts, len(rows))
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatalf("job %s trial %d: repeated rows changed the records", job, trial)
			}

			// rows[once] is in dup twice; either copy may take the flip.
			flip := slices.IndexFunc(dup, func(m wire.Message) bool { return reflect.DeepEqual(m, rows[once]) })
			dup[flip].Content = slices.Clone(dup[flip].Content)
			dup[flip].Content[r.Intn(len(dup[flip].Content))] ^= 0x20
			if got := consolidateRows(encodeMessages(dup)); got.ChunkConflicts != 1 || got.Messages != len(rows) {
				t.Fatalf("job %s trial %d: a repeat with one byte flipped counted %d conflicts and %d messages, want 1 and %d",
					job, trial, got.ChunkConflicts, got.Messages, len(rows))
			}
		}
	}
}
