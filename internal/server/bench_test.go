// Identify throughput: queries per second through the full handler stack
// (mux, instrumentation, JSON decode/encode, index search) without socket
// overhead, serial and parallel — the serving-tier numbers EXPERIMENTS.md
// §6 records. make bench-serve runs the suite.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"siren/internal/catalog"
	"siren/internal/server"
	"siren/internal/sirendb"
)

func benchServer(b *testing.B, jobs int) (http.Handler, []byte) {
	b.Helper()
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for j := 0; j < jobs; j++ {
		seedJob(b, db, j, 1733900000+int64(j))
	}
	cat := catalog.New(catalog.StoreSource(db), catalog.Options{})
	cat.Refresh()
	body, _ := json.Marshal(server.IdentifyRequest{FileH: digest(b, appContent("lammps", 39))})
	return server.NewWithMetrics(cat, nil).Handler(), body
}

func BenchmarkIdentify(b *testing.B) {
	for _, jobs := range []int{16, 64} {
		h, body := benchServer(b, jobs)
		do := func(b *testing.B) {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/identify", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("identify status = %d: %s", w.Code, w.Body)
			}
		}
		b.Run(fmt.Sprintf("serial/jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				do(b)
			}
		})
		b.Run(fmt.Sprintf("parallel/jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					do(b)
				}
			})
		})
	}
}
