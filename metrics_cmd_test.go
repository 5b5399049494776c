// Telemetry e2e: a live siren-receiver — ingesting real UDP datagrams,
// sealing its WAL, refreshing its catalog, and answering API queries — is
// scraped over GET /metrics mid-campaign, and every pipeline stage's
// histogram must show the traffic. The pprof handlers gated by -pprof must
// answer on the same mux. The helpers here are the one way the e2e tests
// read a receiver's numbers: scrape and sampleValue for /metrics,
// statsRecord for the stats record it logs.
package siren_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"siren/internal/wire"
)

// scrape fetches a Prometheus text exposition.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape %s: content-type %q", url, ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sampleValue extracts the value of the series named exactly name (labels
// included) from an exposition, or -1 when absent.
func sampleValue(text, name string) int64 {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		return -1
	}
	v, _ := strconv.ParseInt(m[1], 10, 64)
	return v
}

// statsRecord parses one line of siren-receiver's stdout as its stats
// record (the slog text line with msg=stats) into the record's integer
// attributes; ok is false for any other line.
func statsRecord(line string) (attrs map[string]int, ok bool) {
	fields := strings.Fields(line)
	if !slices.Contains(fields, "msg=stats") {
		return nil, false
	}
	attrs = make(map[string]int)
	for _, f := range fields {
		k, v, _ := strings.Cut(f, "=")
		if n, err := strconv.Atoi(v); err == nil {
			attrs[k] = n
		}
	}
	return attrs, true
}

// lastStatsRecord returns the last stats record in a receiver's output —
// the one it logs at shutdown — failing the test when it lacks a key, so a
// missing count never reads as 0.
func lastStatsRecord(t *testing.T, lines []string) map[string]int {
	t.Helper()
	for i := len(lines) - 1; i >= 0; i-- {
		if attrs, ok := statsRecord(lines[i]); ok {
			for _, k := range []string{"received", "inserted", "malformed", "dropped", "rejected",
				"insert_errors", "insert_lost", "accepted_failover", "read_errors", "queue", "insert_p99_ns", "rows"} {
				if _, ok := attrs[k]; !ok {
					t.Fatalf("stats record lacks %s: %s", k, lines[i])
				}
			}
			return attrs
		}
	}
	t.Fatalf("no stats record in receiver output:\n%s", strings.Join(lines, "\n"))
	return nil
}

func TestReceiverMetricsE2E(t *testing.T) {
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
			"-metrics-addr", "127.0.0.1:0",
			"-pprof",
			"-serve-addr", "127.0.0.1:0",
			"-refresh-interval", "50ms",
			"-seal-interval", "200ms",
			"-sync-interval", "20ms",
			"-stats-interval", "0",
		},
		[]string{"listening on ", "metrics on ", "serving recognition API on "})
	udpAddr := found["listening on "]
	statsBase := strings.TrimSuffix(found["metrics on "], "/metrics")
	apiBase := found["serving recognition API on "]

	// A small live campaign: real datagrams over UDP, spread across jobs.
	conn, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 200; i++ {
		m := wire.Message{Header: wire.Header{
			JobID: fmt.Sprintf("%d", 9000+i%8), StepID: "0", PID: 100 + i,
			Hash: "feed", Host: "nid0001", Time: 1733900000 + int64(i),
			Layer: wire.LayerSelf, Type: wire.TypeObjects, Seq: 0, Total: 1,
		}, Content: []byte(fmt.Sprintf("libm.so.%d", i))}
		if _, err := conn.Write(wire.Encode(m)); err != nil {
			t.Fatal(err)
		}
	}
	// Exercise the query tier so the per-endpoint histograms see traffic.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(apiBase + "/api/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Poll /metrics until every stage of the pipeline has reported: ingest
	// parse+insert, WAL fdatasync, a completed seal, a catalog refresh, and
	// the jobs endpoint latency — all from one scrape of one registry.
	stages := []string{
		"siren_ingest_parse_ns_count",
		"siren_ingest_insert_ns_count",
		"siren_wal_fdatasync_ns_count",
		"siren_seal_ns_count",
		"siren_catalog_refresh_ns_count",
		"siren_catalog_index_build_ns_count",
		`siren_http_request_ns_count{endpoint="jobs"}`,
	}
	deadline := time.Now().Add(15 * time.Second)
	var text string
	for {
		text = scrape(t, statsBase+"/metrics")
		missing := ""
		for _, s := range stages {
			if sampleValue(text, s) < 1 {
				missing = s
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stage %s never reported a sample:\n%s", missing, text)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := sampleValue(text, "siren_ingest_received_total"); got != 200 {
		t.Errorf("siren_ingest_received_total = %d, want 200", got)
	}
	// The loss and failover counters are exposed even while they read zero:
	// an operator's alert needs the series to exist before it fires.
	for _, fam := range []string{"siren_ingest_insert_lost_total", "siren_ingest_accepted_failover_total"} {
		if got := sampleValue(text, fam); got != 0 {
			t.Errorf("%s = %d, want an exposed 0", fam, got)
		}
	}
	if sampleValue(text, "siren_seal_phase_ns_count{phase=\"commit\"}") < 1 {
		t.Errorf("seal phase histograms missing commit samples:\n%s", text)
	}
	// The Go runtime's heap and GC accounting rides the same scrape.
	for _, fam := range []string{"siren_go_heap_live_bytes", "siren_go_gc_cycles", "siren_go_gc_pause_ns"} {
		if sampleValue(text, fam) < 0 {
			t.Errorf("runtime gauge %s missing from /metrics", fam)
		}
	}

	// The query listener serves the same registry.
	if apiText := scrape(t, apiBase+"/metrics"); sampleValue(apiText, "siren_ingest_parse_ns_count") < 1 {
		t.Errorf("-serve-addr /metrics does not expose the shared registry")
	}

	// -pprof: the profiling handlers answer on the stats mux.
	resp, err := http.Get(statsBase + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof cmdline: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "siren-receiver") {
		t.Errorf("pprof cmdline: status %d body %q", resp.StatusCode, body)
	}

	// The final stats record carries the live telemetry beside the
	// counters: queue depth, insert p99 and the store's rows.
	rec := lastStatsRecord(t, strings.Split(stop(), "\n"))
	if rec["insert_p99_ns"] < 1 || rec["rows"] != 200 || rec["received"] != 200 {
		t.Errorf("final stats record %v, want a nonzero insert p99, 200 received and 200 rows", rec)
	}
}
