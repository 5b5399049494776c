package runfmt

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"siren/internal/wire"
)

func testRows(n int) []Row {
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, Row{
			Seq: uint64(i + 1),
			Msg: wire.Message{
				Header: wire.Header{
					JobID:  fmt.Sprintf("job-%d", i%7),
					StepID: "0",
					PID:    1000 + i,
					Hash:   fmt.Sprintf("%032x", i),
					Host:   fmt.Sprintf("node%02d", i%5),
					Time:   1700000000 + int64(i),
					Layer:  wire.LayerSelf,
					Type:   wire.TypeFileH,
					Total:  1,
				},
				Content: []byte(fmt.Sprintf("content-%d", i)),
			},
		})
	}
	return rows
}

func writeRun(t *testing.T, rows []Row) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.run")
	if _, err := Write(path, rows); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	rows := testRows(500)
	path := writeRun(t, rows)
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	if r.Rows() != len(rows) {
		t.Fatalf("Rows = %d, want %d", r.Rows(), len(rows))
	}
	if r.MinSeq() != 1 || r.MaxSeq() != uint64(len(rows)) {
		t.Fatalf("seq range [%d,%d], want [1,%d]", r.MinSeq(), r.MaxSeq(), len(rows))
	}

	wantJobs := map[string]bool{}
	for _, row := range rows {
		wantJobs[row.Msg.JobID] = true
	}
	jobs := r.Jobs()
	if len(jobs) != len(wantJobs) || !sort.StringsAreSorted(jobs) {
		t.Fatalf("Jobs = %v", jobs)
	}
	for _, j := range jobs {
		if !r.HasJob(j) {
			t.Fatalf("HasJob(%q) = false", j)
		}
	}
	if r.HasJob("nope") {
		t.Fatal("HasJob(nope) = true")
	}

	// The full cursor must replay every row in strict seq order.
	c := r.Cursor()
	var got []Row
	for {
		m, seq, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, Row{Seq: seq, Msg: m})
	}
	if c.Err() != nil {
		t.Fatalf("cursor error: %v", c.Err())
	}
	if len(got) != len(rows) {
		t.Fatalf("cursor yielded %d rows, want %d", len(got), len(rows))
	}
	for i, g := range got {
		w := rows[i] // input seqs were already ascending
		if g.Seq != w.Seq {
			t.Fatalf("row %d: seq %d, want %d", i, g.Seq, w.Seq)
		}
		if g.Msg.JobID != w.Msg.JobID || g.Msg.Host != w.Msg.Host ||
			g.Msg.PID != w.Msg.PID || !bytes.Equal(g.Msg.Content, w.Msg.Content) {
			t.Fatalf("row %d mismatch: got %+v want %+v", i, g.Msg, w.Msg)
		}
	}
}

func TestJobCursorAndStats(t *testing.T) {
	rows := testRows(300)
	path := writeRun(t, rows)
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	byJob := map[string][]Row{}
	for _, row := range rows {
		byJob[row.Msg.JobID] = append(byJob[row.Msg.JobID], row)
	}
	total := 0
	for job, want := range byJob {
		c := r.JobCursor(job)
		var got []Row
		for {
			m, seq, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, Row{Seq: seq, Msg: m})
		}
		if c.Err() != nil {
			t.Fatalf("job %s cursor: %v", job, c.Err())
		}
		if len(got) != len(want) {
			t.Fatalf("job %s: %d rows, want %d", job, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Msg.Host != want[i].Msg.Host {
				t.Fatalf("job %s row %d: got seq=%d host=%s, want seq=%d host=%s",
					job, i, got[i].Seq, got[i].Msg.Host, want[i].Seq, want[i].Msg.Host)
			}
		}
		n, minSeq, maxSeq, ok := r.JobStats(job)
		if !ok || n != len(want) || minSeq != want[0].Seq || maxSeq != want[len(want)-1].Seq {
			t.Fatalf("JobStats(%s) = (%d,%d,%d,%v), want (%d,%d,%d,true)",
				job, n, minSeq, maxSeq, ok, len(want), want[0].Seq, want[len(want)-1].Seq)
		}
		total += n
	}
	if total != r.Rows() {
		t.Fatalf("per-job rows sum to %d, footer says %d", total, r.Rows())
	}

	if m, seq, ok := r.JobCursor("absent").Next(); ok {
		t.Fatalf("absent job yielded (%v, %d)", m, seq)
	}

	seen := 0
	r.EachJob(func(job string, n int, minSeq, maxSeq uint64) bool {
		seen++
		if len(byJob[job]) != n {
			t.Fatalf("EachJob %s: %d rows, want %d", job, n, len(byJob[job]))
		}
		return true
	})
	if seen != len(byJob) {
		t.Fatalf("EachJob visited %d jobs, want %d", seen, len(byJob))
	}
}

func TestWriteSortsInput(t *testing.T) {
	rows := testRows(100)
	shuffled := make([]Row, len(rows))
	copy(shuffled, rows)
	// Deterministic scramble: reverse, then swap odd/even pairs.
	for i, j := 0, len(shuffled)-1; i < j; i, j = i+1, j-1 {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	path := writeRun(t, shuffled)
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	c := r.Cursor()
	var prev uint64
	n := 0
	for {
		_, seq, ok := c.Next()
		if !ok {
			break
		}
		if seq <= prev {
			t.Fatalf("cursor not seq-ascending: %d after %d", seq, prev)
		}
		prev = seq
		n++
	}
	if c.Err() != nil || n != len(rows) {
		t.Fatalf("yielded %d rows (err=%v), want %d", n, c.Err(), len(rows))
	}
}

func TestWriteEmptyRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.run")
	if _, err := Write(path, nil); err == nil {
		t.Fatal("Write(nil rows) succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("empty run left a file behind: %v", err)
	}
}

// mutate reopens the run file with one byte changed at off.
func mutate(t *testing.T, path string, off int64, delta byte) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= delta
	out := path + ".mut"
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorruptionDetected(t *testing.T) {
	rows := testRows(200)
	path := writeRun(t, rows)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("torn_tail", func(t *testing.T) {
		// A crashed writer leaves a prefix: the footer magic is gone.
		for _, cut := range []int{1, footerSize / 2, footerSize + 10, len(orig) / 2} {
			p := filepath.Join(t.TempDir(), "torn.run")
			if err := os.WriteFile(p, orig[:len(orig)-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(p); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d bytes: Open err = %v, want ErrCorrupt", cut, err)
			}
		}
	})

	t.Run("bad_header_magic", func(t *testing.T) {
		if _, err := Open(mutate(t, path, 0, 0xff)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("index_bitflip", func(t *testing.T) {
		// Any flip in the index region breaks the index checksum at Open.
		indexOff := int64(len(orig)) - footerSize - 8
		if _, err := Open(mutate(t, path, indexOff, 0x01)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("block_bitflip", func(t *testing.T) {
		// A flip inside the data region opens fine (lazy verification) but
		// the cursor must fail with ErrCorrupt, never yield wrong rows.
		p := mutate(t, path, int64(len(headerMagic))+blockHdrSize+5, 0x01)
		r, err := Open(p)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer r.Close()
		c := r.Cursor()
		for {
			if _, _, ok := c.Next(); !ok {
				break
			}
		}
		if !errors.Is(c.Err(), ErrCorrupt) {
			t.Fatalf("cursor err = %v, want ErrCorrupt", c.Err())
		}
	})

	t.Run("bad_version", func(t *testing.T) {
		p := mutate(t, path, int64(len(orig))-footerSize+48, 0x7f)
		if _, err := Open(p); err == nil {
			t.Fatal("Open accepted an unknown format version")
		}
	})

	t.Run("empty_file", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "zero.run")
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open err = %v, want ErrCorrupt", err)
		}
	})
}

// FuzzRunDecode throws arbitrary bytes — seeded with a valid run and
// structured mutations of it — at Open and a full cursor drain. Invariants:
// never panic, never read out of bounds (the backing bounds-checks every
// Slice), and corrupt input yields an error, never a silent subset of a
// valid file's rows pretending to be complete.
func FuzzRunDecode(f *testing.F) {
	rows := testRows(60)
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.run")
	if _, err := Write(seedPath, rows); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])         // torn footer
	f.Add(valid[:len(headerMagic)+3])   // torn data
	f.Add([]byte(headerMagic))          // header only
	f.Add(bytes.Repeat([]byte{0}, 100)) // zeros
	// Hostile index: valid frame, index offsets pointing everywhere.
	hostile := append([]byte(nil), valid...)
	for i := len(hostile) - footerSize; i < len(hostile)-16; i++ {
		hostile[i] ^= 0xa5
	}
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.run")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(p)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		defer r.Close()
		n := 0
		c := r.Cursor()
		for {
			if _, _, ok := c.Next(); !ok {
				break
			}
			n++
		}
		// An accepted file must be internally consistent: either the cursor
		// drains exactly the advertised rows, or it reports corruption.
		if c.Err() == nil && n != r.Rows() {
			t.Fatalf("accepted file: cursor yielded %d rows, footer advertised %d", n, r.Rows())
		}
		for _, job := range r.Jobs() {
			jc := r.JobCursor(job)
			for {
				if _, _, ok := jc.Next(); !ok {
					break
				}
			}
		}
	})
}

// TestRunFileBytesPinned pins the run format byte for byte: the SHA-256 was
// computed from the file the pre-AppendEncode, copy-and-sort Write produced
// for this input (5 000 rows, 7 jobs × 5 hosts, seqs permuted so the sort is
// exercised, extents that span several blocks). A change to the row order,
// the framing, the encoder or the index moves it.
func TestRunFileBytesPinned(t *testing.T) {
	types := []string{wire.TypeMetadata, wire.TypeObjects, wire.TypeMaps, wire.TypeFileH, "CUSTOM"}
	rows := make([]Row, 5000)
	for i := range rows {
		layer := wire.LayerSelf
		if i%11 == 0 {
			layer = wire.LayerScript
		}
		rows[i] = Row{
			Seq: uint64((i*2741)%len(rows) + 1),
			Msg: wire.Message{
				Header: wire.Header{
					JobID: fmt.Sprintf("job-%d", i%7), StepID: strconv.Itoa(i % 3), PID: 1000 + i,
					Hash: fmt.Sprintf("%032x", uint64(i)*2654435761), Host: fmt.Sprintf("node%02d", i%5),
					Time: 1700000000 + int64(i), Layer: layer, Type: types[i%len(types)],
					Seq: i % 4, Total: 4 + i%3,
				},
				Content: bytes.Repeat([]byte{byte('a' + i%26)}, (i*37)%1900),
			},
		}
	}
	before := append([]Row(nil), rows...)
	data, err := os.ReadFile(writeRun(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	const want = "357dce8eb1bccc1fb49f6fe8f004a468bc0877bb1ab72d263cf47913a32b2d1d"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want || len(data) != 5531789 {
		t.Errorf("run file = %d bytes, sha256 %s; want 5531789 bytes, %s", len(data), got, want)
	}
	// Write sorts references: the caller's rows (a live shard's head, shared
	// with snapshots) must come back untouched.
	if !reflect.DeepEqual(rows, before) {
		t.Error("Write reordered or modified its input")
	}
}
