// Telemetry contract tests for the query tier: the /api/v1/stats JSON stays
// field-for-field backward compatible while gaining percentiles, and
// /metrics serves a Prometheus exposition with a latency histogram per
// endpoint, read from the same instruments as /api/v1/stats.
package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"siren/internal/server"
)

// TestEndpointStatsFieldCompat pins the JSON shape of EndpointStats: the
// three original fields keep their exact names, and the additive percentile
// fields are exactly the four documented ones — nothing silently renamed,
// dropped, or snuck in.
func TestEndpointStatsFieldCompat(t *testing.T) {
	b, err := json.Marshal(server.EndpointStats{
		Requests: 1, Errors: 2, LatencyNSTotal: 3,
		LatencyP50NS: 4, LatencyP90NS: 5, LatencyP99NS: 6, LatencyMaxNS: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"requests":         1,
		"errors":           2,
		"latency_ns_total": 3,
		"latency_p50_ns":   4,
		"latency_p90_ns":   5,
		"latency_p99_ns":   6,
		"latency_max_ns":   7,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("EndpointStats JSON = %v, want exactly %v", m, want)
	}
}

// TestStatsPercentiles drives real requests and checks the percentile
// fields report live histogram data consistent with the cumulative sum.
func TestStatsPercentiles(t *testing.T) {
	_, _, ts := newServed(t, 2)
	for i := 0; i < 20; i++ {
		getJSON(t, ts.URL+"/api/v1/jobs", nil)
	}
	var stats server.StatsResponse
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	ep, ok := stats.Endpoints["jobs"]
	if !ok {
		t.Fatalf("stats endpoints missing jobs: %v", stats.Endpoints)
	}
	if ep.Requests != 20 {
		t.Fatalf("jobs requests = %d, want 20", ep.Requests)
	}
	if ep.LatencyP50NS <= 0 || ep.LatencyP99NS <= 0 || ep.LatencyMaxNS <= 0 {
		t.Fatalf("percentiles not populated: %+v", ep)
	}
	if ep.LatencyP50NS > ep.LatencyP90NS || ep.LatencyP90NS > ep.LatencyP99NS || ep.LatencyP99NS > ep.LatencyMaxNS {
		t.Fatalf("percentiles not monotone: %+v", ep)
	}
	if ep.LatencyNSTotal <= 0 {
		t.Fatalf("cumulative latency sum lost: %+v", ep)
	}
}

// TestMetricsExposition scrapes GET /metrics and checks the per-endpoint
// histogram families are served in Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	_, _, ts := newServed(t, 1)
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/api/v1/jobs", nil)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE siren_http_request_ns histogram",
		`siren_http_request_ns_count{endpoint="jobs"} 3`,
		`siren_http_request_ns_bucket{endpoint="jobs",le="+Inf"} 3`,
		`siren_http_request_ns_sum{endpoint="jobs"}`,
		`siren_http_request_ns_count{endpoint="identify"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestStatsMetricsOneInstrument pins that /api/v1/stats and /metrics
// report each endpoint's requests, errors and cumulative latency from the
// same instruments.
func TestStatsMetricsOneInstrument(t *testing.T) {
	_, _, ts := newServed(t, 1)
	getJSON(t, ts.URL+"/api/v1/jobs", nil)
	getJSON(t, ts.URL+"/api/v1/jobs", nil)
	resp, err := http.Post(ts.URL+"/api/v1/identify", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty identify: status %d, want 400", resp.StatusCode)
	}

	var stats server.StatsResponse
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, c := range []struct {
		endpoint       string
		requests, errs int64
	}{{"jobs", 2, 0}, {"identify", 1, 1}} {
		ep := stats.Endpoints[c.endpoint]
		if ep.Requests != c.requests || ep.Errors != c.errs || ep.LatencyNSTotal <= 0 {
			t.Fatalf("%s stats = %+v, want %d requests, %d errors", c.endpoint, ep, c.requests, c.errs)
		}
		for _, sample := range []string{
			fmt.Sprintf("siren_http_request_ns_count{endpoint=%q} %d\n", c.endpoint, ep.Requests),
			fmt.Sprintf("siren_http_request_ns_sum{endpoint=%q} %d\n", c.endpoint, ep.LatencyNSTotal),
			fmt.Sprintf("siren_http_errors_total{endpoint=%q} %d\n", c.endpoint, ep.Errors),
		} {
			if !strings.Contains(text, sample) {
				t.Fatalf("/metrics lacks %q:\n%s", sample, text)
			}
		}
	}
}
