package receiver

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode"

	"siren/internal/obs"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// TestReceiverMetrics drives the instrumented ingest path and checks every
// stage instrument saw the traffic: parse and queue-wait per datagram,
// insert per batch, counter bridges mirroring Stats, and the queue-depth
// gauge families present in the exposition.
func TestReceiverMetrics(t *testing.T) {
	reg := obs.NewRegistry("test")
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := New(db, Options{Writers: 2, Metrics: reg})
	const n = 50
	src := make(chan []byte, n+1)
	for i := 0; i < n; i++ {
		src <- wire.Encode(mkMsg(100+i, wire.TypeObjects))
	}
	src <- []byte("not a siren datagram")
	close(src)
	r.AttachChannel(src)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	parse := reg.Histogram("siren_ingest_parse_ns", "").Snapshot()
	if parse.Count != n+1 {
		t.Fatalf("parse histogram count = %d, want %d (every datagram, malformed included)", parse.Count, n+1)
	}
	wait := reg.Histogram("siren_ingest_queue_wait_ns", "").Snapshot()
	if wait.Count != n+1 {
		t.Fatalf("queue-wait histogram count = %d, want %d", wait.Count, n+1)
	}
	ins := reg.Histogram("siren_ingest_insert_ns", "").Snapshot()
	if ins.Count == 0 || ins.Count > n {
		t.Fatalf("insert histogram count = %d, want between 1 and %d batches", ins.Count, n)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`siren_ingest_queue_depth{shard="0"} 0`,
		`siren_ingest_queue_depth{shard="1"} 0`,
		`siren_ingest_received_total 51`,
		`siren_ingest_inserted_total 50`,
		`siren_ingest_malformed_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestStatsLine pins the periodic log-line shape the cluster e2e parsers
// match: Stats.String() plus queue depth and insert p99.
func TestStatsLine(t *testing.T) {
	lineRe := regexp.MustCompile(`^received=\d+ inserted=\d+ malformed=\d+ dropped=\d+ rejected=\d+ insert_errors=\d+ insert_lost=\d+ accepted_failover=\d+ queue=\d+ insert_p99_ns=\d+$`)

	// Idle: nothing inserted yet, so p99 reads 0.
	db, _ := sirendb.Open("")
	r := New(db, Options{Writers: 1})
	if line := r.StatsLine(); !lineRe.MatchString(line) {
		t.Fatalf("idle StatsLine %q does not match the pinned shape", line)
	}
	if !strings.HasSuffix(r.StatsLine(), "queue=0 insert_p99_ns=0") {
		t.Fatalf("idle StatsLine = %q, want zero telemetry fields", r.StatsLine())
	}

	// After traffic the p99 is a real sample, with or without a registry
	// from the caller.
	db2, _ := sirendb.OpenOptions("", sirendb.Options{Shards: 1})
	r2 := New(db2, Options{Writers: 1})
	src := make(chan []byte, 8)
	for i := 0; i < 8; i++ {
		src <- wire.Encode(mkMsg(200+i, wire.TypeObjects))
	}
	close(src)
	r2.AttachChannel(src)
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	line := r2.StatsLine()
	if !lineRe.MatchString(line) {
		t.Fatalf("StatsLine %q does not match the pinned shape", line)
	}
	if strings.HasSuffix(line, "insert_p99_ns=0") {
		t.Fatalf("StatsLine %q has p99 = 0 after %d inserts", line, 8)
	}
}

// TestStatsMetricsParity requires every StatsSnapshot counter to reach
// /metrics: field InsertLost must appear as siren_ingest_insert_lost_total,
// and so on for each field, so a counter added to Stats cannot stay
// invisible to scrapers.
func TestStatsMetricsParity(t *testing.T) {
	reg := obs.NewRegistry("test")
	db, _ := sirendb.Open("")
	New(db, Options{Writers: 1, Metrics: reg})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	fields := reflect.TypeOf(StatsSnapshot{})
	for i := 0; i < fields.NumField(); i++ {
		fam := "siren_ingest_" + snakeCase(fields.Field(i).Name) + "_total"
		if !strings.Contains(text, "# TYPE "+fam+" counter\n") {
			t.Errorf("StatsSnapshot.%s has no %s counter in the exposition", fields.Field(i).Name, fam)
		}
	}
}

// snakeCase turns a Go field name into its metric-name form:
// AcceptedFailover → accepted_failover.
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}
