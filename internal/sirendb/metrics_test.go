package sirendb

import (
	"fmt"
	"path/filepath"
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
