package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
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

// TestGauge checks a GaugeFunc is evaluated at every scrape, so it tracks a
// value that goes up and down between scrapes.
func TestGauge(t *testing.T) {
	r := NewRegistry("test")
	depth := int64(10)
	r.GaugeFunc("siren_depth", "help", func() int64 { return depth })
	for _, want := range []int64{10, 7} {
		depth = want
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if line := "siren_depth " + strconv.FormatInt(want, 10) + "\n"; !strings.Contains(b.String(), line) {
			t.Fatalf("exposition %q lacks %q", b.String(), line)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	one := func() int64 { return 1 }
	for name, reregister := range map[string]func(r *Registry){
		"counter as gauge":   func(r *Registry) { r.Counter("siren_x", ""); r.GaugeFunc("siren_x", "", one) },
		"gaugefunc as value": func(r *Registry) { r.GaugeFunc("siren_x", "", one); r.Counter("siren_x", "") },
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
	r.GaugeFunc("siren_queue_depth", "pending datagrams", func() int64 { return 5 })
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
	r.GaugeFunc("siren_b_depth", "with \"quotes\" and \\slash", func() int64 { return -3 }, L("path", `C:\tmp`))
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

// TestConcurrentRecord hammers one histogram and one counter from many
// goroutines while snapshots and expositions run concurrently — the -race
// proof that the record path takes no locks it needs.
func TestConcurrentRecord(t *testing.T) {
	r := NewRegistry("race")
	h := r.Histogram("siren_race_ns", "")
	c := r.Counter("siren_race_total", "")
	r.GaugeFunc("siren_race_depth", "", c.Value)

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
// while the exposition scrapes in a loop — under -race, the proof that a
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

// TestRuntimeGauges: the heap and GC gauges appear in the exposition and
// read the runtime's live accounting — a forced GC shows as a cycle.
func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry("test")
	r.RegisterRuntime()
	runtime.GC()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, fam := range []string{"siren_go_heap_live_bytes", "siren_go_gc_cycles", "siren_go_gc_pause_ns"} {
		m := regexp.MustCompile(`(?m)^` + fam + ` (\d+)$`).FindStringSubmatch(text)
		if m == nil || !strings.Contains(text, "# TYPE "+fam+" gauge\n") {
			t.Fatalf("exposition lacks gauge %s:\n%s", fam, text)
		}
		if m[1] == "0" {
			t.Errorf("%s = 0 after a forced GC", fam)
		}
	}
}
