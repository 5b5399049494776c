// Telemetry e2e: a live siren-receiver — ingesting real UDP datagrams,
// sealing its WAL, refreshing its catalog, and answering API queries — is
// scraped over GET /metrics mid-campaign, and every pipeline stage's
// histogram must show the traffic. The pprof handlers gated by -pprof must
// answer on the same mux.
package siren_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
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
			"-expvar-addr", "127.0.0.1:0",
			"-pprof",
			"-serve-addr", "127.0.0.1:0",
			"-refresh-interval", "50ms",
			"-seal-interval", "200ms",
			"-sync-interval", "20ms",
			"-stats-interval", "0",
		},
		[]string{"listening on ", "expvar on ", "serving recognition API on "})
	udpAddr := found["listening on "]
	statsBase := strings.TrimSuffix(found["expvar on "], "/debug/vars")
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

	// The final stats line carries the telemetry suffix the cluster e2e
	// parser pins (queue depth + insert p99).
	out := stop()
	if !regexp.MustCompile(`queue=\d+ insert_p99_ns=[1-9]\d* rows=200`).MatchString(out) {
		t.Errorf("final stats line missing live telemetry fields:\n%s", out)
	}
}
