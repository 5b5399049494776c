package receiver

import (
	"fmt"
	"log/slog"
	"reflect"
	"strconv"
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
// insert per batch, the Stats counters, and the queue-depth
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
	if wait.Count != n {
		t.Fatalf("queue-wait histogram count = %d, want %d (a malformed datagram is never queued)", wait.Count, n)
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
	for r.Stats().ReadErrors.Value() == 0 {
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
	want := r.Stats().ReadErrors.Value()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("siren_ingest_read_errors_total %d\n", want); !strings.Contains(b.String(), line) {
		t.Fatalf("exposition missing %q", line)
	}
}

// statsRecord runs LogStats into a text handler and returns the record's
// integer attributes by key.
func statsRecord(t *testing.T, r *Receiver) map[string]int64 {
	t.Helper()
	var b strings.Builder
	r.LogStats(slog.New(slog.NewTextHandler(&b, nil)), slog.Int("rows", 7))
	line := strings.TrimSuffix(b.String(), "\n")
	if strings.Contains(line, "\n") || !strings.Contains(line, " msg=stats ") {
		t.Fatalf("stats record is not one msg=stats line: %q", b.String())
	}
	attrs := make(map[string]int64)
	for _, f := range strings.Fields(line) {
		k, v, _ := strings.Cut(f, "=")
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			attrs[k] = n
		}
	}
	return attrs
}

// TestStatsLine pins the stats record the receiver binary logs: every
// StatsSnapshot field under its snake_case key with the snapshot's value,
// then the queue depth, the insert p99 and the caller's attributes.
func TestStatsLine(t *testing.T) {
	check := func(r *Receiver) map[string]int64 {
		t.Helper()
		rec := statsRecord(t, r)
		snap := reflect.ValueOf(r.Stats().Snapshot())
		for i := 0; i < snap.NumField(); i++ {
			key := snakeCase(snap.Type().Field(i).Name)
			if got, ok := rec[key]; !ok || got != snap.Field(i).Int() {
				t.Errorf("record %s = %d (present %v), want StatsSnapshot.%s = %d",
					key, got, ok, snap.Type().Field(i).Name, snap.Field(i).Int())
			}
		}
		if rec["rows"] != 7 {
			t.Errorf("record rows = %d, want the caller's 7", rec["rows"])
		}
		return rec
	}

	// Idle: nothing inserted yet, so p99 reads 0.
	db, _ := sirendb.Open("")
	if rec := check(New(db, Options{Writers: 1})); rec["queue"] != 0 || rec["insert_p99_ns"] != 0 {
		t.Fatalf("idle record = %v, want zero telemetry fields", rec)
	}

	// After traffic the counters and the p99 are real samples, with or
	// without a registry from the caller.
	db2, _ := sirendb.OpenOptions("", sirendb.Options{Shards: 1})
	r2 := New(db2, Options{Writers: 1})
	src := make(chan []byte, 9)
	for i := 0; i < 8; i++ {
		src <- wire.Encode(mkMsg(200+i, wire.TypeObjects))
	}
	src <- []byte("not a siren datagram")
	close(src)
	r2.AttachChannel(src)
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	rec := check(r2)
	if rec["received"] != 9 || rec["inserted"] != 8 || rec["malformed"] != 1 {
		t.Fatalf("record = %v, want 9 received, 8 inserted, 1 malformed", rec)
	}
	if rec["insert_p99_ns"] == 0 {
		t.Fatalf("record %v has p99 = 0 after %d inserts", rec, 8)
	}
}

// TestStatsMetricsParity requires every StatsSnapshot counter to be a
// registry counter: field InsertLost must appear as
// siren_ingest_insert_lost_total with the value Snapshot reads, and so on
// for each field, after traffic that moves the counters — so a counter added
// to Stats cannot stay invisible to scrapers, or disagree with them.
func TestStatsMetricsParity(t *testing.T) {
	reg := obs.NewRegistry("test")
	db, _ := sirendb.Open("")
	r := New(db, Options{Writers: 1, Metrics: reg})
	src := make(chan []byte, 4)
	for i := 0; i < 3; i++ {
		src <- wire.Encode(mkMsg(300+i, wire.TypeObjects))
	}
	src <- []byte("not a siren datagram")
	close(src)
	r.AttachChannel(src)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
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
	snap := reflect.ValueOf(r.Stats().Snapshot())
	if snap.FieldByName("Received").Int() != 4 || snap.FieldByName("Malformed").Int() != 1 {
		t.Fatalf("snapshot %+v: the traffic did not move the counters", snap.Interface())
	}
	for i := 0; i < snap.NumField(); i++ {
		name := snap.Type().Field(i).Name
		fam := "siren_ingest_" + snakeCase(name) + "_total"
		if !strings.Contains(text, "# TYPE "+fam+" counter\n") {
			t.Errorf("StatsSnapshot.%s has no %s counter in the exposition", name, fam)
		}
		if got := reg.Counter(fam, "").Value(); got != snap.Field(i).Int() {
			t.Errorf("%s = %d, StatsSnapshot.%s = %d", fam, got, name, snap.Field(i).Int())
		}
		if sample := fmt.Sprintf("\n%s %d\n", fam, snap.Field(i).Int()); !strings.Contains(text, sample) {
			t.Errorf("exposition lacks %q", sample)
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
