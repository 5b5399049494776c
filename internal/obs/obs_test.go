package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry("test")
	c := r.Counter("siren_test_total", "help")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("siren_test_total", "help"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry("test")
	g := r.Gauge("siren_depth", "help")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Record(1)
	h.Observe(time.Second)
	h.Since(time.Now())
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	one := func() int64 { return 1 }
	for name, reregister := range map[string]func(r *Registry){
		"counter as gauge":     func(r *Registry) { r.Counter("siren_x", ""); r.Gauge("siren_x", "") },
		"counterfunc as value": func(r *Registry) { r.CounterFunc("siren_x", "", one); r.Counter("siren_x", "") },
		"gaugefunc as value":   func(r *Registry) { r.GaugeFunc("siren_x", "", one); r.Gauge("siren_x", "") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on kind mismatch")
				}
			}()
			reregister(NewRegistry("test"))
		})
	}
}

func TestRegistryBadNamePanics(t *testing.T) {
	r := NewRegistry("test")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	r.Counter("siren bad name", "")
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry("test")
	h := r.Histogram("siren_lat_ns", "help")
	// 90 fast samples, 9 medium, 1 slow: p50 lands in the fast bucket,
	// p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Record(100) // bucket bit-len 7 → upper bound 127
	}
	for i := 0; i < 9; i++ {
		h.Record(1000) // bit-len 10 → upper 1023
	}
	h.Record(100000) // bit-len 17 → upper 131071

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := int64(90*100 + 9*1000 + 100000); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Max != 100000 {
		t.Fatalf("max = %d, want 100000", s.Max)
	}
	if s.P50 != 127 {
		t.Fatalf("p50 = %d, want 127", s.P50)
	}
	if s.P90 != 127 {
		t.Fatalf("p90 = %d, want 127 (rank 90 is the last fast sample)", s.P90)
	}
	if s.P99 != 1023 {
		t.Fatalf("p99 = %d, want 1023", s.P99)
	}
	// The estimate never exceeds the true max even in the top bucket.
	if q := clampMax(quantile(&[histBuckets]uint64{64: 1}, 1, 0.99), 50); q != 50 {
		t.Fatalf("clamped quantile = %d, want 50", q)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	r := NewRegistry("test")
	h := r.Histogram("siren_neg_ns", "")
	h.Record(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("negative sample snapshot = %+v, want count=1 sum=0 max=0", s)
	}
}

func TestBucketBounds(t *testing.T) {
	if bucketUpper(0) != 0 {
		t.Fatalf("bucketUpper(0) = %d", bucketUpper(0))
	}
	if bucketUpper(1) != 1 || bucketUpper(7) != 127 {
		t.Fatal("small bucket bounds wrong")
	}
	if bucketUpper(64) != math.MaxInt64 {
		t.Fatalf("top bucket must be open-ended, got %d", bucketUpper(64))
	}
}

// TestPrometheusGolden pins the full text exposition byte for byte: family
// ordering, HELP/TYPE lines, label rendering, sparse cumulative histogram
// buckets, and the mandatory +Inf bucket.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry("golden")
	r.Counter("siren_ingest_total", "datagrams ingested", L("shard", "0")).Add(7)
	r.Counter("siren_ingest_total", "datagrams ingested", L("shard", "1")).Add(3)
	r.Gauge("siren_queue_depth", "pending datagrams").Set(5)
	r.GaugeFunc("siren_up", "always one", func() int64 { return 1 })
	h := r.Histogram("siren_insert_ns", "insert latency")
	h.Record(3) // bit-len 2 → le 3
	h.Record(3)
	h.Record(100) // bit-len 7 → le 127

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP siren_ingest_total datagrams ingested
# TYPE siren_ingest_total counter
siren_ingest_total{shard="0"} 7
siren_ingest_total{shard="1"} 3
# HELP siren_insert_ns insert latency
# TYPE siren_insert_ns histogram
siren_insert_ns_bucket{le="3"} 2
siren_insert_ns_bucket{le="127"} 3
siren_insert_ns_bucket{le="+Inf"} 3
siren_insert_ns_sum 106
siren_insert_ns_count 3
# HELP siren_queue_depth pending datagrams
# TYPE siren_queue_depth gauge
siren_queue_depth 5
# HELP siren_up always one
# TYPE siren_up gauge
siren_up 1
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// promNameRe / promLineRe implement the text-format grammar for the
// validation test: every non-comment line must be name{labels} value.
var (
	promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	promLblRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// validatePromText parses every line of a text exposition, failing on any
// grammar violation, and returns the set of family names seen in samples.
func validatePromText(t *testing.T, text string) map[string]bool {
	t.Helper()
	fams := make(map[string]bool)
	typed := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || !promNameRe.MatchString(parts[2]) {
				t.Fatalf("line %d: bad comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				if len(parts) != 4 {
					t.Fatalf("line %d: TYPE missing kind: %q", ln+1, line)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[3])
				}
				typed[parts[2]] = parts[3]
			}
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := promLineRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparseable sample %q", ln+1, line)
			}
			name := m[1]
			if m[3] != "" {
				for _, pair := range splitLabels(m[3]) {
					if !promLblRe.MatchString(pair) {
						t.Fatalf("line %d: bad label %q", ln+1, pair)
					}
				}
			}
			if _, err := strconv.ParseFloat(strings.TrimPrefix(m[4], "+"), 64); err != nil && m[4] != "+Inf" {
				t.Fatalf("line %d: bad value %q", ln+1, m[4])
			}
			// Map histogram series back to their family name.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suf)
				if base != name && typed[base] == "histogram" {
					name = base
					break
				}
			}
			if typed[name] == "" {
				t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, line)
			}
			fams[name] = true
		}
	}
	return fams
}

// splitLabels splits `k="v",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// TestPrometheusGrammar registers one of everything, scrapes the Handler,
// and validates every emitted line against the text-format grammar,
// asserting all registered families appear.
func TestPrometheusGrammar(t *testing.T) {
	r := NewRegistry("grammar")
	r.Counter("siren_a_total", "a", L("shard", "0")).Inc()
	r.Gauge("siren_b_depth", "with \"quotes\" and \\slash", L("path", `C:\tmp`)).Set(-3)
	r.GaugeFunc("siren_c", "c", func() int64 { return 9 })
	h := r.Histogram("siren_d_ns", "d", L("phase", "write-runs"))
	for i := int64(1); i < 1_000_000; i *= 3 {
		h.Record(i)
	}
	r.Histogram("siren_empty_ns", "never recorded") // still must expose

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	b := string(body)
	fams := validatePromText(t, b)
	for _, want := range []string{"siren_a_total", "siren_b_depth", "siren_c", "siren_d_ns", "siren_empty_ns"} {
		if want == "siren_empty_ns" {
			// An empty histogram has only the +Inf bucket, _sum, _count.
			continue
		}
		if !fams[want] {
			t.Fatalf("family %s missing from exposition:\n%s", want, b)
		}
	}
	if !strings.Contains(b, `siren_empty_ns_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram must still emit +Inf bucket:\n%s", b)
	}
}

func TestExpvarBridge(t *testing.T) {
	r := NewRegistry("bridge")
	r.Counter("siren_n_total", "").Add(4)
	r.Gauge("siren_g", "", L("shard", "2")).Set(8)
	h := r.Histogram("siren_h_ns", "")
	h.Record(1024)

	var m map[string]any
	if err := json.Unmarshal([]byte(r.Expvar().String()), &m); err != nil {
		t.Fatalf("expvar bridge emitted invalid JSON: %v", err)
	}
	if m["siren_n_total"] != float64(4) {
		t.Fatalf("counter via expvar = %v", m["siren_n_total"])
	}
	if m[`siren_g{shard="2"}`] != float64(8) {
		t.Fatalf("labeled gauge via expvar = %v (keys %v)", m[`siren_g{shard="2"}`], m)
	}
	hist, ok := m["siren_h_ns"].(map[string]any)
	if !ok {
		t.Fatalf("histogram via expvar = %T", m["siren_h_ns"])
	}
	if hist["count"] != float64(1) || hist["sum"] != float64(1024) || hist["max"] != float64(1024) {
		t.Fatalf("histogram summary = %v", hist)
	}
}

// TestConcurrentRecord hammers one histogram and one counter from many
// goroutines while snapshots and expositions run concurrently — the -race
// proof that the record path takes no locks it needs.
func TestConcurrentRecord(t *testing.T) {
	r := NewRegistry("race")
	h := r.Histogram("siren_race_ns", "")
	c := r.Counter("siren_race_total", "")
	g := r.Gauge("siren_race_depth", "")

	const workers = 8
	const perWorker = 10000
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader: snapshots + full expositions
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = h.Snapshot()
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.Expvar().String()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < perWorker; i++ {
				h.Record(seed*1000 + i)
				c.Inc()
				g.Add(1)
			}
		}(int64(w))
	}
	// Registration from another goroutine must also be safe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Counter("siren_late_total", "", L("i", strconv.Itoa(i%4))).Inc()
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
}

// TestRegisterDuringScrape registers labelled children and whole families
// while both expositions scrape in a loop — under -race, the proof that a
// scrape only ever reaches fully built, published entries (labelled children
// are created on first use, long after the first scrape).
func TestRegisterDuringScrape(t *testing.T) {
	r := NewRegistry("x")
	r.Counter("siren_x_total", "", L("i", "seed")).Inc()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.WritePrometheus(io.Discard)
			_ = r.Expvar().String()
		}
	}()
	const n = 2000
	for i := 0; i < n; i++ {
		r.Counter("siren_x_total", "", L("i", strconv.Itoa(i))).Inc()
		if i%100 == 0 {
			r.Histogram("siren_fam_"+strconv.Itoa(i)+"_ns", "").Record(1)
		}
	}
	close(stop)
	<-done

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "siren_x_total{"); got != n+1 {
		t.Errorf("exposition has %d siren_x_total children, want %d", got, n+1)
	}
	if got := strings.Count(b.String(), "# TYPE siren_fam_"); got != n/100 {
		t.Errorf("exposition has %d late families, want %d", got, n/100)
	}
}
