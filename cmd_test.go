// CLI smoke tests: build and exercise the command surface end to end —
// siren-campaign writing a WAL, siren-analyze reading it back (including the
// CSV, audit, and clustering modes), and siren-hash hashing/comparing files.
package siren_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"siren/internal/membership"
	"siren/internal/sirendb"
	"siren/internal/sirendb/runfmt"
	"siren/internal/wire"
)

func runCmd(t *testing.T, dir string, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCommandLineSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, tool := range []string{"siren-campaign", "siren-analyze", "siren-hash", "siren-scan"} {
		runCmd(t, repo, "go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
	}

	work := t.TempDir()
	wal := filepath.Join(work, "siren.wal")

	// Campaign → WAL.
	out := runCmd(t, work, filepath.Join(bin, "siren-campaign"), "-scale", "0.002", "-seed", "9", "-db", wal)
	if !strings.Contains(out, "Table 5: derived labels") {
		t.Errorf("campaign output missing tables:\n%s", truncate(out))
	}
	// The store splits the WAL into per-shard segment files "<path>.<n>".
	if _, err := os.Stat(wal + ".0"); err != nil {
		t.Fatalf("WAL segment not written: %v", err)
	}

	// Analyze the stored WAL.
	out = runCmd(t, work, filepath.Join(bin, "siren-analyze"), "-db", wal)
	if !strings.Contains(out, "Table 2: users, jobs, and processes") {
		t.Errorf("analyze output missing tables:\n%s", truncate(out))
	}
	out = runCmd(t, work, filepath.Join(bin, "siren-analyze"), "-db", wal, "-csv", "table5")
	if !strings.HasPrefix(out, "label,users,jobs,procs,file_h") {
		t.Errorf("csv output wrong:\n%s", truncate(out))
	}
	out = runCmd(t, work, filepath.Join(bin, "siren-analyze"), "-db", wal, "-clusters", "55")
	if !strings.Contains(out, "similarity clusters at threshold 55") {
		t.Errorf("clusters output wrong:\n%s", truncate(out))
	}
	runCmd(t, work, filepath.Join(bin, "siren-analyze"), "-db", wal, "-audit")

	// siren-hash: hash two related files and compare. Content must be
	// varied (perfectly periodic data degenerates any CTPH digest).
	f1 := filepath.Join(work, "a.bin")
	f2 := filepath.Join(work, "b.bin")
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "log line %04d: solver residual %d.%03d at step %d node nid%06d\n",
			i, i%7, (i*37)%1000, i*3, 1000+i%64)
	}
	base := sb.String()
	if err := os.WriteFile(f1, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f2, []byte(base[:4000]+"INSERTED EDIT\n"+base[4000:]), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, work, filepath.Join(bin, "siren-hash"), f1, f2)
	if strings.Count(out, ":") < 4 {
		t.Errorf("hash output wrong: %s", out)
	}
	out = runCmd(t, work, filepath.Join(bin, "siren-hash"), "-compare", f1, f2)
	score := strings.TrimSpace(out)
	if score == "0" || score == "" {
		t.Errorf("compare score = %q, want > 0 for near-identical files", score)
	}
	out = runCmd(t, work, filepath.Join(bin, "siren-hash"), "-backend", "damerau", "-compare", f1, f1)
	if strings.TrimSpace(out) != "100" {
		t.Errorf("self-compare = %q, want 100", out)
	}

	// siren-scan against this test binary's own Go toolchain output: any
	// real ELF on disk will do; use the built siren-hash binary itself.
	out = runCmd(t, work, filepath.Join(bin, "siren-scan"), filepath.Join(bin, "siren-hash"))
	if !strings.Contains(out, "FILE_H") {
		t.Errorf("scan output wrong:\n%s", truncate(out))
	}
}

// TestReceiverMetricsMember runs siren-receiver with -metrics-addr as one
// member of a two-member roster, feeds it real datagrams over UDP — some
// owned by this member, some by its (absent) sibling — and checks /metrics
// serves the receiver and store counters, including the rejected-datagram
// count, and that nothing answers on /debug/vars.
func TestReceiverMetricsMember(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "siren-receiver")
	runCmd(t, repo, "go", "build", "-o", bin, "./cmd/siren-receiver")

	// The receiver runs as whichever member of the roster {r0, r1} owns
	// (JOBID=7, HOST=n1); datagrams for (JOBID=7, HOST=rejectHost) are
	// chosen so the other member owns them, and exactly those must surface
	// as Rejected.
	ids := []string{"r0", "r1"}
	owner := func(host string) string {
		job, h := []byte("7"), []byte(host)
		if membership.Score(ids[0], job, h) >= membership.Score(ids[1], job, h) { // ties go to the smaller ID
			return ids[0]
		}
		return ids[1]
	}
	self := owner("n1")
	rejectHost := ""
	for _, h := range []string{"n2", "n3", "n4", "n5", "n6", "n7"} {
		if owner(h) != self {
			rejectHost = h
			break
		}
	}
	if rejectHost == "" {
		t.Fatal("no candidate host is owned by the other member")
	}

	work := t.TempDir()
	found, stop := startCmd(t, bin,
		[]string{
			"-addr", "127.0.0.1:0",
			"-db", filepath.Join(work, "siren.wal"),
			"-member-id", self,
			"-roster", "r0=127.0.0.1:1,r1=127.0.0.1:2",
			"-metrics-addr", "127.0.0.1:0",
			"-stats-interval", "0",
		},
		[]string{"listening on ", "metrics on "})
	defer stop()
	udpAddr, metricsURL := found["listening on "], found["metrics on "]

	// Feed real datagrams so the counters move: 5 owned by this member,
	// 3 owned by the (absent) sibling member.
	conn, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		datagram := fmt.Sprintf(
			"SIREN1|JOBID=7|STEPID=0|PID=%d|HASH=abcd|HOST=n1|TIME=1733900000|LAYER=SELF|TYPE=METADATA|SEQ=0|TOT=1|CONTENT=EXE=/bin/x", i)
		if _, err := conn.Write([]byte(datagram)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		datagram := fmt.Sprintf(
			"SIREN1|JOBID=7|STEPID=0|PID=%d|HASH=abcd|HOST=%s|TIME=1733900000|LAYER=SELF|TYPE=METADATA|SEQ=0|TOT=1|CONTENT=EXE=/bin/x", i, rejectHost)
		if _, err := conn.Write([]byte(datagram)); err != nil {
			t.Fatal(err)
		}
	}

	// Poll /metrics until the datagrams surface in the counters.
	deadline := time.Now().Add(5 * time.Second)
	for {
		text := scrape(t, metricsURL)
		if sampleValue(text, "siren_ingest_received_total") >= 8 && sampleValue(text, "siren_store_rows") >= 5 {
			if got := sampleValue(text, "siren_store_shards"); got < 1 {
				t.Errorf("siren_store_shards = %d, want the store's shard count", got)
			}
			if got := sampleValue(text, "siren_ingest_rejected_total"); got != 3 {
				t.Errorf("siren_ingest_rejected_total = %d, want 3", got)
			}
			if got := sampleValue(text, "siren_store_rows"); got != 5 {
				t.Errorf("siren_store_rows = %d, want only the 5 owned datagrams", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never reached 8 datagrams:\n%s", text)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /metrics is the one exposition: nothing answers on /debug/vars.
	resp, err := http.Get(strings.TrimSuffix(metricsURL, "/metrics") + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status = %d, want 404", resp.StatusCode)
	}
}

// TestAnalyzeRefusesMissingStore: siren-analyze pointed at a store that does
// not exist exits non-zero and creates nothing, instead of opening (and so
// creating) an empty store and reporting a zero-row campaign.
func TestAnalyzeRefusesMissingStore(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "siren-analyze")
	runCmd(t, repo, "go", "build", "-o", bin, "./cmd/siren-analyze")

	work := t.TempDir()
	out, err := exec.Command(bin, "-db", filepath.Join(work, "missing.wal"), "-json").CombinedOutput()
	if err == nil {
		t.Fatalf("siren-analyze on a missing store exited 0:\n%s", truncate(string(out)))
	}
	entries, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("siren-analyze on a missing store created %s", e.Name())
	}
}

func truncate(s string) string {
	if len(s) > 800 {
		return s[:800] + "…"
	}
	return s
}

// TestAnalyzeRefusesTruncatedStore: a sealed run whose bytes went bad
// stays unnoticed by Open (block checksums are verified lazily, and a row is
// scanned only when it is read), so only the read finds it. The reading
// snapshot's Err must then report ErrCorrupt, and siren-analyze must exit
// non-zero with the error on stderr and print no report built from the
// truncated stream. The cases are a block that fails its checksum, and rows
// that are not a canonical datagram of their extent's job inside a block
// whose checksum holds.
func TestAnalyzeRefusesTruncatedStore(t *testing.T) {
	var bin string
	if !testing.Short() {
		repo, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		bin = filepath.Join(t.TempDir(), "siren-analyze")
		runCmd(t, repo, "go", "build", "-o", bin, "./cmd/siren-analyze")
	}
	// The first row of job-0 is "…|JOBID=job-0|…|PID=10|…|HOST=nid000|…".
	edit := func(old, new string) func([]byte) []byte {
		return func(row []byte) []byte { return bytes.Replace(row, []byte(old), []byte(new), 1) }
	}
	for _, tc := range []struct {
		name string
		// flip, when set, is the file offset of a byte flipped in place;
		// otherwise the run is rewritten with job-0's first row edited.
		flip int
		row  func([]byte) []byte
	}{
		{"block checksum", len("SIRENRUN1\n") + 8 + 5, nil}, // first block's payload, past its header
		{"flipped prefix byte", 0, edit("|HOST=", "|HOSU=")},
		{"'|' inside a value", 0, edit("HOST=nid000", "HOST=nid|00")},
		{"+5 in a decimal", 0, edit("PID=10|", "PID=+5|")},
		{"007 in a decimal", 0, edit("PID=10|", "PID=07|")},
		{"-0 in a decimal", 0, edit("PID=10|", "PID=-0|")},
		{"JOBID of another job", 0, edit("JOBID=job-0", "JOBID=job-9")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "siren.wal")
			db, err := sirendb.OpenOptions(path, sirendb.Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]wire.Message, 150)
			for i := range ms {
				ms[i] = wire.Message{
					Header: wire.Header{
						JobID: fmt.Sprintf("job-%d", i%5), StepID: "0", PID: 10 + i,
						Hash: fmt.Sprintf("%08x", i), Host: fmt.Sprintf("nid%03d", i%3),
						Time: 1733900000 + int64(i), Layer: wire.LayerSelf, Type: wire.TypeFileH, Total: 1,
					},
					Content: []byte(fmt.Sprintf("row-%d", i)),
				}
			}
			if err := db.InsertBatch(ms); err != nil {
				t.Fatal(err)
			}
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			runs, err := filepath.Glob(path + ".run.*")
			if err != nil || len(runs) != 1 {
				t.Fatalf("sealed run files %v (%v), want one", runs, err)
			}
			if tc.row != nil {
				rewriteRun(t, runs[0], tc.row)
			} else {
				b, err := os.ReadFile(runs[0])
				if err != nil {
					t.Fatal(err)
				}
				b[tc.flip] ^= 0x01
				if err := os.WriteFile(runs[0], b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			db, err = sirendb.OpenOptions(path, sirendb.Options{Shards: 1, ReadOnly: true})
			if err != nil {
				t.Fatalf("run corruption must stay lazy, Open: %v", err)
			}
			sn := db.Snapshot()
			n := 0
			sn.Iter(func(wire.Message) bool { n++; return true })
			if n >= len(ms) || !errors.Is(sn.Err(), runfmt.ErrCorrupt) {
				t.Errorf("snapshot read %d of %d rows, Err %v; want a truncated stream and ErrCorrupt", n, len(ms), sn.Err())
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if bin == "" {
				return // short mode: no CLI build
			}
			var stdout, stderr strings.Builder
			cmd := exec.Command(bin, "-db", path, "-json")
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err == nil {
				t.Fatalf("siren-analyze over a corrupt run exited 0:\n%s", truncate(stdout.String()))
			}
			if !strings.Contains(stderr.String(), "corrupt") {
				t.Errorf("stderr does not name the corruption: %q", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("siren-analyze printed a report from the truncated stream:\n%s", truncate(stdout.String()))
			}
		})
	}
}

// rewriteRun rewrites the run file at path through the run writer, row for
// row, with edit applied to the first row of its first job: the edited row
// sits in a block whose checksum holds.
func rewriteRun(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	r, err := runfmt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w, err := runfmt.Create(path + ".new")
	if err != nil {
		t.Fatal(err)
	}
	for j, job := range r.Jobs() {
		c := r.JobCursor(job)
		for i := 0; ; i++ {
			var row wire.Scanned
			seq, ok := c.NextScanned(&row)
			if !ok {
				break
			}
			d := bytes.Clone(row.Datagram)
			if i == 0 && j == 0 {
				d = edit(d)
			}
			if err := w.Add(job, seq, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".new", path); err != nil {
		t.Fatal(err)
	}
}
