package runfmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
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

// next takes one row from c by value — the shape the assertions compare.
func next(c *Cursor) (wire.Message, uint64, bool) {
	var row wire.Scanned
	var m wire.Message
	seq, ok := c.NextScanned(&row)
	if ok {
		var d wire.Decoder
		d.Fill(&row, &m)
	}
	return m, seq, ok
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
		m, seq, ok := next(c)
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
			m, seq, ok := next(c)
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

	if m, seq, ok := next(r.JobCursor("absent")); ok {
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
		_, seq, ok := next(c)
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
			if _, _, ok := next(c); !ok {
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

// TestCorruptionDetectedWhilePeeked: the merge reads a stream's next sequence
// number before it takes the row, and that peek is what loads and verifies
// the stream's next block. A block that fails its checksum while its first
// record is only peeked must end the cursor with ErrCorrupt, and every row
// handed out before must be exactly the run's row at that position.
func TestCorruptionDetectedWhilePeeked(t *testing.T) {
	// Host a: small rows at odd seqs; host b: 4 KiB rows at even seqs, so
	// b's extent spans several blocks and its second block is first read by
	// a peek while a's rows are still being taken.
	var rows []Row
	for i := 0; i < 200; i++ {
		h := wire.Header{JobID: "j", StepID: "0", PID: i, Hash: "h", Host: "a", Time: 1, Layer: wire.LayerSelf, Type: wire.TypeFileH, Total: 1}
		content := []byte("x")
		if i%2 == 1 {
			h.Host, content = "b", bytes.Repeat([]byte{byte('0' + i%10)}, 4096)
		}
		rows = append(rows, Row{Seq: uint64(i + 1), Msg: wire.Message{Header: h, Content: content}})
	}
	path := writeRun(t, rows)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := r.jobs[0].extents[1]
	if b.host != "b" {
		t.Fatalf("second extent is host %q", b.host)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	second := b.off + blockHdrSize + int64(binary.LittleEndian.Uint32(orig[b.off:]))
	if second >= b.off+b.length {
		t.Fatal("host b's extent fits one block; the test needs two")
	}
	// Flip a byte of the first record's message in b's second block.
	bad := mutate(t, path, second+blockHdrSize+recHdrSize+10, 0x01)

	for _, tc := range []struct {
		name   string
		cursor func(*Run) *Cursor
	}{{"run", (*Run).Cursor}, {"job", func(r *Run) *Cursor { return r.JobCursor("j") }}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Open(bad)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			c := tc.cursor(r)
			n, fromB := 0, 0
			for {
				m, seq, ok := next(c)
				if !ok {
					break
				}
				want := rows[n]
				if seq != want.Seq || !reflect.DeepEqual(m, want.Msg) {
					t.Fatalf("row %d: got seq %d %+v, want seq %d %+v", n, seq, m.Header, want.Seq, want.Msg.Header)
				}
				if m.Host == "b" {
					fromB++
				}
				n++
			}
			if !errors.Is(c.Err(), ErrCorrupt) {
				t.Fatalf("cursor err = %v after %d rows, want ErrCorrupt", c.Err(), n)
			}
			if fromB == 0 || n >= len(rows) {
				t.Fatalf("stream ended after %d rows (%d of host b): the corrupt block was not the one peeked", n, fromB)
			}
			if _, ok := c.PeekSeq(); ok {
				t.Fatal("PeekSeq reports a row after the cursor failed")
			}
		})
	}
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
			if _, _, ok := next(c); !ok {
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
				if _, _, ok := next(jc); !ok {
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

// TestRunNonCanonicalRowIsCorrupt: a run is sealed from a store's head,
// which holds canonical bytes only, so a row in a verified block that spells
// PID as 007 was not written by a store. Both cursor reads report ErrCorrupt
// at that row instead of handing it out — a consolidation keys rows by their
// bytes, which only canonical rows make sound.
func TestRunNonCanonicalRowIsCorrupt(t *testing.T) {
	good := "SIREN1|JOBID=J|STEPID=0|PID=7|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=1|CONTENT=x"
	path := filepath.Join(t.TempDir(), "noncanonical.run")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range []string{good, strings.Replace(good, "PID=7|", "PID=007|", 1)} {
		if err := w.Add("J", "n", uint64(i+1), []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for name, read := range map[string]func(*Cursor) (uint64, bool){
		"NextScanned": func(c *Cursor) (uint64, bool) { var row wire.Scanned; return c.NextScanned(&row) },
	} {
		c := r.Cursor()
		if seq, ok := read(c); !ok || seq != 1 {
			t.Fatalf("%s: first row seq %d ok %v (%v), want the canonical row 1", name, seq, ok, c.Err())
		}
		if seq, ok := read(c); ok || !errors.Is(c.Err(), ErrCorrupt) {
			t.Errorf("%s: PID=007 row read as seq %d ok %v, err %v; want ErrCorrupt", name, seq, ok, c.Err())
		}
	}
}
