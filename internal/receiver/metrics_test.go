package receiver

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
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
	recv := reg.Histogram("siren_ingest_recv_batch", "").Snapshot()
	if recv.Sum != n+1 || recv.Count == 0 || recv.Max > burstMax {
		t.Fatalf("recv batch histogram = %+v, want %d datagrams in calls of at most %d", recv, n+1, burstMax)
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
		`siren_ingest_read_errors_total 0`,
		`siren_ingest_recv_batch_count `,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestReadErrorMetrics makes the socket fail reads while the receiver
// runs: each failure is counted in siren_ingest_read_errors_total, and the
// reader keeps serving once the socket recovers.
func TestReadErrorMetrics(t *testing.T) {
	reg := obs.NewRegistry("test")
	db, _ := sirendb.Open("")
	r := New(db, Options{Writers: 1, Metrics: reg})
	addr, err := r.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A deadline in the past fails every read until it is cleared.
	if err := r.conn.SetReadDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	for r.Stats().ReadErrors.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := r.conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	tr, err := wire.DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(wire.Encode(mkMsg(1, wire.TypeMetadata))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Count() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 1 {
		t.Fatalf("stored %d after the socket recovered, want 1", db.Count())
	}
	want := r.Stats().ReadErrors.Load()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("siren_ingest_read_errors_total %d\n", want); !strings.Contains(b.String(), line) {
		t.Fatalf("exposition missing %q", line)
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
	// The batching factor is not a Stats counter but must be scrapeable
	// beside them.
	if !strings.Contains(text, "# TYPE siren_ingest_recv_batch histogram\n") {
		t.Error("no siren_ingest_recv_batch histogram in the exposition")
	}
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
