package postprocess

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"siren/internal/campaign"
	"siren/internal/wire"
)

// wideJob is a job the kernel sees whole: two Python interpreters, one with
// a SCRIPT layer, and a compiled solver, each with every list, its MAPS text
// and its digests; the first interpreter's records are split over datagrams
// of 160 bytes, the others' are one datagram each.
func wideJob(job string) []wire.Message {
	var out []wire.Message
	maps := "7f00-7f10 r-xp 00000000 08:01 12 /usr/lib/python3.10/site-packages/numpy/core/_multiarray.so\n" +
		"7f20-7f30 r-xp 00000000 08:01 13 /usr/lib64/python3.10/lib-dynload/_heapq.cpython-310-x86_64-linux-gnu.so\n"
	objects := "/opt/siren/lib/siren.so\n/lib64/libm.so.6\n/lib64/libc.so.6\n/lib64/libpthread.so.0\n"
	for pid, exe := range []string{"/usr/bin/python3.10", "/users/u/solver", "/usr/bin/python3.11"} {
		h := wire.Header{JobID: job, StepID: "0", PID: 100 + pid, Hash: fmt.Sprintf("h%d", pid), Host: "nid0001",
			Time: campaign.DefaultStartTime, Layer: wire.LayerSelf}
		size := wire.MaxDatagram
		if pid == 0 {
			size = 160
		}
		add := func(typ, content string) {
			h.Type = typ
			out = append(out, wire.Chunk(h, []byte(content), size)...)
		}
		category := "python"
		if pid == 1 {
			category = "user"
		}
		add(wire.TypeMetadata, "EXE="+exe+"\nCATEGORY="+category+"\nUID=1000\nSIZE=4096")
		add(wire.TypeObjects, objects)
		add(wire.TypeModules, "craype/2.7.30\ncray-mpich/8.1.27\n")
		add(wire.TypeCompilers, "GCC: (GNU) 12.2.0\n")
		add(wire.TypeMaps, maps[:len(maps)*(pid+1)/3])
		add(wire.TypeFileH, "96:"+strings.Repeat("abcdefgh", 24)+":"+strings.Repeat("ijkl", 12))
		add(wire.TypeStringsH, "3:aaa:bbb")
		if pid == 0 {
			h.Layer = wire.LayerScript
			add(wire.TypeMetadata, "EXE=/scratch/u/run.py\nINODE=9\nMTIME=5")
			add(wire.TypeFileH, "3:ccc:ddd")
		}
	}
	return out
}

// TestRecordsShareNoBytesWithRows: a record keeps nothing that points into
// the rows it was consolidated from, nor into the kernel's scratch. Jobs are
// consolidated from test-owned buffers of canonical rows, as a WAL head
// holds them, by one kernel (so later jobs hit what earlier ones cached);
// then a further job overwrites the scratch, every buffer is overwritten,
// and every string and list of every record must read as before.
func TestRecordsShareNoBytesWithRows(t *testing.T) {
	jobs := [][]wire.Message{wideJob("1"), wideJob("2"), wideJob("1")}
	if !testing.Short() {
		jobs = append(jobs, jobChunks(campaignCapture())[:40]...)
	}
	var k kernel
	var recs []*ProcessRecord
	var bufs [][]wire.Scanned
	for _, msgs := range jobs {
		rows := encodeMessages(msgs)
		bufs = append(bufs, rows)
		recs = append(recs, k.consolidate(rows).Records...)
	}
	chunked := false
	for _, msgs := range jobs {
		for _, m := range msgs {
			chunked = chunked || m.Total > 1
		}
	}
	imports := 0
	for _, r := range recs {
		imports += len(r.Imports)
	}
	if !chunked || imports == 0 || len(recs) < 6 {
		t.Fatalf("%d records, %d imports, chunked %v: the jobs lost their shape", len(recs), imports, chunked)
	}
	want, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	// A further job overwrites the kernel's scratch; then the rows go.
	scrub := wideJob("3")
	for i := range scrub {
		scrub[i].Content = bytes.Repeat([]byte{'#'}, len(scrub[i].Content))
	}
	k.consolidate(encodeMessages(scrub))
	for _, rows := range bufs {
		for _, row := range rows {
			buf := row.Datagram[:cap(row.Datagram)]
			for i := range buf {
				buf[i] = '#'
			}
		}
	}
	got, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("records changed when the rows' buffers were overwritten")
	}
}

// TestRetainedHeapPerRecord bounds what a consolidated record costs while
// it is kept: on the seed-1 scale-0.02 capture, sealed and reopened
// read-only, the heap the records hold once the pass's garbage is
// collected, per record. Records that each kept their job's content
// retained 968 B; records that keep one copy of each distinct string and
// list, 565 B. The bound is 650 B.
func TestRetainedHeapPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full scale-0.02 campaign capture")
	}
	db, rows := openSealedCapture(t)
	defer db.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, stats := ConsolidateSnapshot(db.Snapshot(), StreamOptions{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if stats.Messages != rows {
		t.Fatalf("consolidated %d of %d rows", stats.Messages, rows)
	}
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(recs))
	runtime.KeepAlive(recs)
	t.Logf("%.0f B retained per record over %d records", perRecord, len(recs))
	if perRecord > 650 {
		t.Errorf("%.0f B retained per record, want <= 650", perRecord)
	}
}

// BenchmarkConsolidateDistinct is the caches' worst case: the shape of a
// catalogue of distinct builds, where nothing repeats but the category —
// jobs of 64 processes, each a METADATA record with its own executable and
// six digests of its own. One kernel takes every job, as one worker of a
// pass does; every string the records keep is a cache miss.
func BenchmarkConsolidateDistinct(b *testing.B) {
	const jobs, procs = 80, 64
	rng := rand.New(rand.NewSource(1))
	digest := func() string {
		const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
		d := make([]byte, 64+1+32)
		for i := range d {
			d[i] = alphabet[rng.Intn(len(alphabet))]
		}
		d[64] = ':'
		return "192:" + string(d)
	}
	chunks := make([][]wire.Scanned, jobs)
	rows := 0
	for j := range chunks {
		var msgs []wire.Message
		for p := 0; p < procs; p++ {
			i := j*procs + p
			h := wire.Header{JobID: fmt.Sprintf("cat%d", j), StepID: "0", PID: 1000 + i, Hash: fmt.Sprintf("%032x", i),
				Host: fmt.Sprintf("nid%04d", j), Time: campaign.DefaultStartTime + int64(i), Layer: wire.LayerSelf, Total: 1}
			meta := fmt.Sprintf("EXE=/appl/lammps/%04d/bin/lmp_%d\nCATEGORY=user\nPPID=1\nUID=1000\nINODE=%d\nSIZE=%d\nMODE=755", j, i, 100000+i, 1<<20+i)
			for _, typ := range []string{wire.TypeMetadata, wire.TypeFileH, wire.TypeStringsH, wire.TypeSymbolsH,
				wire.TypeObjectsH, wire.TypeModulesH, wire.TypeCompilersH} {
				content := meta
				if typ != wire.TypeMetadata {
					content = digest()
				}
				h.Type = typ
				msgs = append(msgs, wire.Message{Header: h, Content: []byte(content)})
			}
		}
		chunks[j] = encodeMessages(msgs)
		rows += len(msgs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var k kernel
		for _, chunk := range chunks {
			k.consolidate(chunk)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
