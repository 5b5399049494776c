package sirendb

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"siren/internal/obs"
)

// TestTierBytesMetrics: the siren_store_head_bytes and siren_store_sealed_bytes
// gauges read what Stats reports — the head's bytes until a Seal moves them
// into a run, the run files' bytes after.
func TestTierBytesMetrics(t *testing.T) {
	reg := obs.NewRegistry("test")
	path := filepath.Join(t.TempDir(), "siren.wal")
	db, err := OpenOptions(path, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gauges := func() string {
		var text strings.Builder
		if err := reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		return text.String()
	}
	check := func(when string, wantHead, wantSealed bool) {
		t.Helper()
		st := db.Stats()
		if (st.HeadBytes > 0) != wantHead || (st.SealedBytes > 0) != wantSealed {
			t.Fatalf("%s: HeadBytes %d, SealedBytes %d", when, st.HeadBytes, st.SealedBytes)
		}
		text := gauges()
		for _, sample := range []string{
			fmt.Sprintf("\nsiren_store_head_bytes %d\n", st.HeadBytes),
			fmt.Sprintf("\nsiren_store_sealed_bytes %d\n", st.SealedBytes),
		} {
			if !strings.Contains(text, sample) {
				t.Fatalf("%s: /metrics lacks %q:\n%s", when, sample, text)
			}
		}
	}
	check("empty", false, false)
	for i := 0; i < 20; i++ {
		if err := db.Insert(jobMsg(fmt.Sprintf("job-%d", i%3), "nid0001", 100+i, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	check("after inserts", true, false)
	if st := db.Stats(); st.HeadBytes != st.WALBytes-2*int64(len(segMagic)) {
		t.Fatalf("HeadBytes %d, want the %d record bytes appended to the segments", st.HeadBytes, st.WALBytes-2*int64(len(segMagic)))
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	check("after Seal", false, true)
}

// TestStoreStatsMetricsParity requires every StoreStats field on /metrics
// with the value Stats reports, through inserts, a Seal, more inserts and a
// reopen. A field added to StoreStats fails here until it has a series.
func TestStoreStatsMetricsParity(t *testing.T) {
	series := map[string]string{
		"Rows":           "siren_store_rows",
		"Shards":         "siren_store_shards",
		"LastSeq":        "siren_store_last_seq",
		"CorruptRecords": "siren_store_corrupt_records",
		"WALBytes":       "siren_store_wal_bytes",
		"WALSynced":      "siren_store_wal_synced_bytes",
		"SyncFailed":     "siren_store_sync_failed",
		"SealedGen":      "siren_store_sealed_generation",
		"SealedRuns":     "siren_store_sealed_runs",
		"SealedRows":     "siren_store_sealed_rows",
		"HeadBytes":      "siren_store_head_bytes",
		"SealedBytes":    "siren_store_sealed_bytes",
		"RunReadErrors":  "siren_run_read_errors_total",
	}
	path := filepath.Join(t.TempDir(), "siren.wal")
	open := func() (*DB, *obs.Registry) {
		reg := obs.NewRegistry("test")
		db, err := OpenOptions(path, Options{Shards: 2, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return db, reg
	}
	insert := func(db *DB, from, n int) {
		for i := from; i < from+n; i++ {
			if err := db.Insert(jobMsg(fmt.Sprintf("job-%d", i%3), "nid0001", 100+i, "payload")); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, db *DB, reg *obs.Registry) {
		t.Helper()
		var text strings.Builder
		if err := reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		st := reflect.ValueOf(db.Stats())
		for i := 0; i < st.NumField(); i++ {
			field := st.Type().Field(i).Name
			name, ok := series[field]
			if !ok {
				t.Fatalf("StoreStats.%s has no /metrics series", field)
			}
			var want int64
			switch v := st.Field(i); v.Kind() {
			case reflect.Bool:
				if v.Bool() {
					want = 1
				}
			case reflect.Uint64:
				want = int64(v.Uint())
			default:
				want = v.Int()
			}
			if sample := fmt.Sprintf("\n%s %d\n", name, want); !strings.Contains(text.String(), sample) {
				t.Errorf("%s: StoreStats.%s = %d, but /metrics lacks %q", when, field, want, sample)
			}
		}
	}

	db, reg := open()
	insert(db, 0, 20)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	check("after inserts", db, reg)
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	insert(db, 20, 5)
	check("after Seal and more inserts", db, reg)
	if st := db.Stats(); st.SealedGen == 0 || st.SealedRows != 20 || st.Rows != 25 {
		t.Fatalf("Stats after Seal = %+v, want 20 sealed of 25 rows", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, reg = open()
	defer db.Close()
	check("after reopen", db, reg)
	if st := db.Stats(); st.Rows != 25 || st.LastSeq != 25 {
		t.Fatalf("Stats after reopen = %+v, want 25 rows up to seq 25", st)
	}
}
