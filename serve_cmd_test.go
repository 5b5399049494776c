// Serving-tier CLI tests: siren-serve over a finished campaign (report
// parity with siren-analyze -json, graceful shutdown) and siren-receiver
// -serve-addr answering identify queries over a live ingesting store fed by
// real UDP datagrams.
package siren_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"siren/internal/ssdeep"
	"siren/internal/wire"
)

// startCmd launches a binary and scans its stdout for the given startup
// markers ("marker text" → captured rest-of-line first field), returning
// the captures and a stopper that SIGTERMs and waits.
func startCmd(t *testing.T, bin string, args []string, markers []string) (map[string]string, func() string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var tail bytes.Buffer
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	found := make(map[string]string)
	sc := bufio.NewScanner(stdout)
	for len(found) < len(markers) && sc.Scan() {
		line := sc.Text()
		for _, m := range markers {
			if _, rest, ok := strings.Cut(line, m); ok {
				found[m] = strings.TrimSuffix(strings.Fields(rest)[0], ",")
			}
		}
	}
	if len(found) < len(markers) {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("startup markers missing: got %v want %v (scan err %v)", found, markers, sc.Err())
	}
	drained := make(chan struct{})
	go func() { // keep the pipe drained; EOF on process exit
		io.Copy(&tail, stdout)
		close(drained)
	}()
	stop := func() string {
		cmd.Process.Signal(syscall.SIGTERM)
		// Drain to EOF before Wait: Wait closes the pipe and would race the
		// copier out of the last lines ("drained") the exit path prints.
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Errorf("%s did not exit on SIGTERM", filepath.Base(bin))
			<-drained
		}
		if err := cmd.Wait(); err != nil {
			t.Errorf("%s exited with %v\n%s", filepath.Base(bin), err, tail.String())
		}
		return tail.String()
	}
	return found, stop
}

func TestServeCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, tool := range []string{"siren-campaign", "siren-analyze", "siren-serve"} {
		runCmd(t, repo, "go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
	}
	work := t.TempDir()
	wal := filepath.Join(work, "siren.wal")
	runCmd(t, work, filepath.Join(bin, "siren-campaign"), "-scale", "0.002", "-seed", "9", "-db", wal)

	// The offline JSON report, before siren-serve takes the member lock.
	offline := runCmd(t, work, filepath.Join(bin, "siren-analyze"), "-db", wal, "-json")

	found, stop := startCmd(t, filepath.Join(bin, "siren-serve"),
		[]string{"-db", wal, "-addr", "127.0.0.1:0"},
		[]string{"serving on "})
	base := found["serving on "]

	var health struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Status != "ok" || health.Generation != 1 {
		t.Fatalf("healthz = %+v (err %v)", health, err)
	}

	// /api/v1/report must carry exactly the structure siren-analyze -json
	// emitted — one serialisation, two transports.
	resp, err = http.Get(base + "/api/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	var served struct {
		Report json.RawMessage `json:"report"`
	}
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var servedRep, offlineRep any
	if err := json.Unmarshal(served.Report, &servedRep); err != nil {
		t.Fatalf("served report not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(offline), &offlineRep); err != nil {
		t.Fatalf("siren-analyze -json output not JSON: %v\n%s", err, truncate(offline))
	}
	sb, _ := json.Marshal(servedRep)
	ob, _ := json.Marshal(offlineRep)
	if !bytes.Equal(sb, ob) {
		t.Errorf("served report != siren-analyze -json:\n served  %s\n offline %s", truncate(string(sb)), truncate(string(ob)))
	}

	// Identify with a syntactically valid digest nothing matches: 200, empty.
	resp, err = http.Post(base+"/api/v1/identify", "application/json",
		strings.NewReader(`{"file_h":"3:aabbccdd:eeff"}`))
	if err != nil {
		t.Fatal(err)
	}
	var ident struct {
		Rows []json.RawMessage `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ident)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("identify: status %d err %v", resp.StatusCode, err)
	}

	// GET /metrics: the standalone server serves the shared registry — its
	// per-endpoint latency histograms plus the catalog's one boot refresh.
	text := scrape(t, base+"/metrics")
	if !strings.Contains(text, "# TYPE siren_http_request_ns histogram") {
		t.Errorf("/metrics missing the endpoint latency histogram:\n%s", text)
	}
	for _, name := range []string{"siren_catalog_refresh_ns_count", "siren_catalog_index_build_ns_count"} {
		if got := sampleValue(text, name); got != 1 {
			t.Errorf("%s = %d, want 1 (the boot refresh)", name, got)
		}
	}
	if got := sampleValue(text, "siren_catalog_index_bytes"); got <= 0 {
		t.Errorf("siren_catalog_index_bytes = %d, want the served index's size", got)
	}
	for _, fam := range []string{"siren_go_heap_live_bytes", "siren_go_gc_cycles", "siren_go_gc_pause_ns"} {
		if sampleValue(text, fam) < 0 {
			t.Errorf("runtime gauge %s missing from /metrics", fam)
		}
	}

	out := stop()
	if !strings.Contains(out, "drained") {
		t.Errorf("shutdown did not drain cleanly:\n%s", out)
	}

	// A SIGTERM sent the moment the first request is answered must still
	// take the drain path (stop fails the test on a non-zero exit): the
	// handler is installed before the listener exists. Several starts,
	// because the window it guards is a few goroutine starts wide.
	for i := 0; i < 5; i++ {
		found, stop := startCmd(t, filepath.Join(bin, "siren-serve"),
			[]string{"-db", wal, "-addr", "127.0.0.1:0", "-readonly"},
			[]string{"serving on "})
		resp, err := http.Get(found["serving on "] + "/healthz")
		if err != nil {
			stop()
			t.Fatalf("start %d: healthz: %v", i, err)
		}
		out := stop()
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(out, "drained") {
			t.Fatalf("start %d: SIGTERM right after the first answer (status %d) skipped the drain:\n%s", i, resp.StatusCode, out)
		}
	}
}

func TestReceiverServeLiveIdentify(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "siren-receiver")
	runCmd(t, repo, "go", "build", "-o", bin, "./cmd/siren-receiver")

	work := t.TempDir()
	found, stop := startCmd(t, bin,
		[]string{
			"-addr", "127.0.0.1:0",
			"-db", filepath.Join(work, "siren.wal"),
			"-serve-addr", "127.0.0.1:0",
			"-refresh-interval", "50ms",
			"-stats-interval", "0",
		},
		[]string{"listening on ", "serving recognition API on "})
	defer stop()
	udpAddr, base := found["listening on "], found["serving recognition API on "]

	// Feed a labelled build over real UDP, then identify a near-identical
	// digest through the live API. Content must be varied — perfectly
	// periodic data degenerates any CTPH digest.
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "lammps pair_style eam/alloy step %04d: residual %d.%03d neighbor nid%06d\n",
			i, i%7, (i*37)%1000, 1000+i%64)
	}
	content := sb.String()
	stored, err := ssdeep.HashString(content)
	if err != nil {
		t.Fatal(err)
	}
	query, err := ssdeep.HashString(content[:4000] + "PATCHED BUILD\n" + content[4000:])
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := wire.Header{
		JobID: "42", StepID: "0", PID: 7, Hash: "feed", Host: "nid0001",
		Time: 1733900000, Layer: wire.LayerSelf, Seq: 0, Total: 1,
	}
	for typ, body := range map[string]string{
		wire.TypeMetadata: "EXE=/appl/lammps/bin/lmp\nCATEGORY=user\nUID=1000",
		wire.TypeFileH:    stored,
	} {
		h := hdr
		h.Type = typ
		if _, err := conn.Write(wire.Encode(wire.Message{Header: h, Content: []byte(body)})); err != nil {
			t.Fatal(err)
		}
	}

	// Poll until a catalog refresh has picked the rows up and the ranking
	// lands on LAMMPS.
	reqBody := fmt.Sprintf(`{"file_h":%q}`, query)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(base+"/api/v1/identify", "application/json", strings.NewReader(reqBody))
		var out struct {
			Generation uint64 `json:"generation"`
			Rows       []struct {
				Label string  `json:"label"`
				Exe   string  `json:"exe"`
				Avg   float64 `json:"avg"`
			} `json:"rows"`
		}
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		if err == nil && len(out.Rows) > 0 {
			if out.Rows[0].Label != "LAMMPS" || out.Rows[0].Exe != "/appl/lammps/bin/lmp" || out.Rows[0].Avg <= 0 {
				t.Fatalf("live identify ranked wrong: %+v", out.Rows)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("live identify never matched: last err=%v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
