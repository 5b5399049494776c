// CLI smoke tests: build and exercise the command surface end to end —
// siren-campaign writing a WAL, siren-analyze reading it back (including the
// CSV, audit, and clustering modes), and siren-hash hashing/comparing files.
package siren_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"siren/internal/membership"
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

// TestReceiverExpvar runs siren-receiver with -expvar-addr as one member of a
// two-member roster, feeds it real datagrams over UDP — some owned by this
// member, some by its (absent) sibling — and checks the /debug/vars endpoint
// serves the receiver and store counters, including the rejected-datagram
// count.
func TestReceiverExpvar(t *testing.T) {
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
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-db", filepath.Join(work, "siren.wal"),
		"-member-id", self,
		"-roster", "r0=127.0.0.1:1,r1=127.0.0.1:2",
		"-expvar-addr", "127.0.0.1:0",
		"-stats-interval", "0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Error("receiver did not exit on SIGTERM")
		}
	}()

	// The first two stdout lines announce the bound UDP and expvar
	// addresses.
	var udpAddr, expvarURL string
	sc := bufio.NewScanner(stdout)
	for (udpAddr == "" || expvarURL == "") && sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			udpAddr = strings.Fields(rest)[0]
			udpAddr = strings.TrimSuffix(udpAddr, ",")
		}
		if _, rest, ok := strings.Cut(line, "expvar on "); ok {
			expvarURL = strings.TrimSpace(rest)
		}
	}
	if udpAddr == "" || expvarURL == "" {
		t.Fatalf("startup lines missing (udp=%q expvar=%q): %v", udpAddr, expvarURL, sc.Err())
	}

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

	// Poll /debug/vars until the datagrams surface in the counters.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var vars struct {
			Receiver struct {
				Received int64
				Inserted int64
				Rejected int64
			} `json:"siren_receiver"`
			Store struct {
				Rows   int
				Shards int
			} `json:"siren_store"`
		}
		resp, err := http.Get(expvarURL)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&vars)
			resp.Body.Close()
		}
		if err == nil && vars.Receiver.Received >= 8 && vars.Store.Rows >= 5 {
			if vars.Store.Shards < 1 {
				t.Errorf("store stats missing shard count: %+v", vars.Store)
			}
			if vars.Receiver.Rejected != 3 {
				t.Errorf("expvar Rejected = %d, want 3", vars.Receiver.Rejected)
			}
			if vars.Store.Rows != 5 {
				t.Errorf("store rows = %d, want only the 5 owned datagrams", vars.Store.Rows)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("expvar counters never reached 8 datagrams: last err=%v vars=%+v", err, vars)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func truncate(s string) string {
	if len(s) > 800 {
		return s[:800] + "…"
	}
	return s
}
