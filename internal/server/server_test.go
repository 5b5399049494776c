// Query-tier tests: endpoint contracts over a static catalog, and the
// acceptance e2e — identify answers over a live, concurrently ingesting
// store must equal the offline Table 7 search on a snapshot at the served
// generation. Run with -race via make test-serve.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"siren/internal/analysis"
	"siren/internal/catalog"
	"siren/internal/postprocess"
	"siren/internal/report"
	"siren/internal/server"
	"siren/internal/sirendb"
	"siren/internal/ssdeep"
	"siren/internal/wire"
)

// appContent/digest/procMessages/seedJob mirror the catalog test fixtures:
// one contiguous edit block per build keeps CTPH digests of one app similar
// while different apps stay unrelated.
func appContent(app string, variant int) string {
	h := 0
	for _, c := range app {
		h = h*31 + int(c)
	}
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		if variant > 0 && i == (variant*9)%390 {
			for e := 0; e < 5; e++ {
				fmt.Fprintf(&sb, "%s build-edit v%d line %d\n", app, variant, e)
			}
		}
		fmt.Fprintf(&sb, "%s log %04d: residual %d.%03d at step %d sym_%06d\n",
			app, i, (h+i)%7, (i*37+h)%1000, i*3, (h+i*1009)%999983)
	}
	return sb.String()
}

func digest(t testing.TB, content string) string {
	t.Helper()
	d, err := ssdeep.HashString(content)
	if err != nil {
		t.Fatalf("HashString: %v", err)
	}
	return d
}

func procMessages(t testing.TB, job, host string, pid int, tm int64, exe, app string, variant int) []wire.Message {
	mk := func(typ, content string) wire.Message {
		return wire.Message{
			Header: wire.Header{
				JobID: job, StepID: "0", PID: pid, Hash: fmt.Sprintf("%032x", pid),
				Host: host, Time: tm, Layer: wire.LayerSelf, Type: typ, Seq: 0, Total: 1,
			},
			Content: []byte(content),
		}
	}
	return []wire.Message{
		mk(wire.TypeMetadata, fmt.Sprintf("EXE=%s\nCATEGORY=user\nUID=%d\nGID=100", exe, 1000+variant%3)),
		mk(wire.TypeFileH, digest(t, appContent(app, variant))),
		mk(wire.TypeStringsH, digest(t, appContent(app+"/strings", variant))),
		mk(wire.TypeSymbolsH, digest(t, appContent(app+"/symbols", variant))),
		mk(wire.TypeObjectsH, digest(t, appContent(app+"/objects", variant))),
		mk(wire.TypeModulesH, digest(t, appContent(app+"/modules", variant))),
		mk(wire.TypeCompilersH, digest(t, appContent(app+"/compilers", variant))),
	}
}

func seedJob(t testing.TB, db *sirendb.DB, jobN int, tm int64) {
	apps := []struct{ exe, app string }{
		{"/appl/lammps/bin/lmp_gpu", "lammps"},
		{"/appl/gromacs/bin/gmx", "gromacs"},
		{"/usr/bin/gzip", "gzip"},
	}
	a := apps[jobN%len(apps)]
	job := fmt.Sprintf("job-%d", jobN)
	for h := 0; h < 2; h++ {
		msgs := procMessages(t, job, fmt.Sprintf("nid%04d", h), 100+jobN*10+h, tm, a.exe, a.app, jobN+1)
		if err := db.InsertBatch(msgs); err != nil {
			t.Fatal(err)
		}
	}
	if jobN == 0 {
		if err := db.InsertBatch(procMessages(t, job, "nid0000", 999, tm, "/users/u1/a.out", "lammps", 39)); err != nil {
			t.Fatal(err)
		}
	}
}

// newServed builds a store with n jobs, a refreshed catalog, and an
// httptest server over the query mux.
func newServed(t testing.TB, jobs int) (*sirendb.DB, *catalog.Catalog, *httptest.Server) {
	t.Helper()
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for j := 0; j < jobs; j++ {
		seedJob(t, db, j, 1733900000+int64(j))
	}
	cat := catalog.New(catalog.StoreSource(db), catalog.Options{})
	cat.Refresh()
	ts := httptest.NewServer(server.NewWithMetrics(cat, nil).Handler())
	t.Cleanup(ts.Close)
	return db, cat, ts
}

func getJSON(t testing.TB, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

func postIdentify(t testing.TB, url string, req server.IdentifyRequest) (server.IdentifyResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/api/v1/identify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST identify: %v", err)
	}
	defer resp.Body.Close()
	var out server.IdentifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("identify: decoding: %v", err)
		}
	}
	return out, resp
}

func TestIdentifyEndpoint(t *testing.T) {
	_, cat, ts := newServed(t, 6)
	gen := cat.Generation()
	unknown, ok := gen.Dataset.FindUnknown()
	if !ok {
		t.Fatal("no UNKNOWN baseline")
	}

	out, resp := postIdentify(t, ts.URL, server.IdentifyRequest{
		ModulesH:   unknown.ModulesH,
		CompilersH: unknown.CompilersH,
		ObjectsH:   unknown.ObjectsH,
		FileH:      unknown.FileH,
		StringsH:   unknown.StringsH,
		SymbolsH:   unknown.SymbolsH,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identify status = %d", resp.StatusCode)
	}
	if out.Generation != gen.Gen || out.LastSeq != gen.LastSeq {
		t.Errorf("identify generation = %d/%d, want %d/%d", out.Generation, out.LastSeq, gen.Gen, gen.LastSeq)
	}
	want := report.JSONSimilarityRows(gen.Dataset.SimilaritySearch(unknown, server.DefaultTopK, ssdeep.BackendWeighted))
	if !reflect.DeepEqual(out.Rows, want) {
		t.Errorf("identify rows diverge from offline SimilaritySearch:\n got  %+v\n want %+v", out.Rows, want)
	}
	if len(out.Rows) == 0 || out.Rows[0].Label != "LAMMPS" {
		t.Errorf("unknown lammps build not identified: %+v", out.Rows)
	}

	// Single-digest queries and explicit backends work too.
	out, resp = postIdentify(t, ts.URL, server.IdentifyRequest{FileH: unknown.FileH, Top: 3, Backend: "damerau"})
	if resp.StatusCode != http.StatusOK || len(out.Rows) > 3 {
		t.Errorf("top-3 damerau identify: status %d rows %d", resp.StatusCode, len(out.Rows))
	}

	// Error surface: wrong method, empty query, junk body, bad backend.
	if r := getJSON(t, ts.URL+"/api/v1/identify", nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET identify status = %d, want 405", r.StatusCode)
	}
	if _, r := postIdentify(t, ts.URL, server.IdentifyRequest{}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty identify status = %d, want 400", r.StatusCode)
	}
	if _, r := postIdentify(t, ts.URL, server.IdentifyRequest{FileH: "x", Backend: "md5"}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-backend identify status = %d, want 400", r.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/api/v1/identify", "application/json", strings.NewReader(`{"file_h": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk body identify status = %d, want 400", resp.StatusCode)
	}
}

func TestReadEndpoints(t *testing.T) {
	_, cat, ts := newServed(t, 6)
	gen := cat.Generation()

	var health server.HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Generation != gen.Gen {
		t.Errorf("healthz = %+v", health)
	}

	var jobs server.JobsResponse
	getJSON(t, ts.URL+"/api/v1/jobs", &jobs)
	if len(jobs.Jobs) != 6 || jobs.Generation != gen.Gen {
		t.Fatalf("jobs = %+v", jobs)
	}
	if jobs.Jobs[0].JobID != "job-0" || jobs.Jobs[0].Processes != 3 {
		t.Errorf("job-0 summary = %+v, want 3 processes", jobs.Jobs[0])
	}

	var rep server.ReportResponse
	getJSON(t, ts.URL+"/api/v1/report", &rep)
	want := report.BuildJSON(gen.Dataset, gen.Stats)
	got, _ := json.Marshal(rep.Report)
	wantB, _ := json.Marshal(want)
	if !bytes.Equal(got, wantB) {
		t.Errorf("report diverges from report.BuildJSON:\n got  %s\n want %s", got, wantB)
	}

	var clusters server.ClustersResponse
	getJSON(t, ts.URL+"/api/v1/clusters?threshold=55", &clusters)
	if clusters.Threshold != 55 || len(clusters.Clusters) == 0 {
		t.Errorf("clusters = %+v", clusters)
	}
	if r := getJSON(t, ts.URL+"/api/v1/clusters", nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("threshold-less clusters status = %d, want 400", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/api/v1/clusters?threshold=999", nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range threshold status = %d, want 400", r.StatusCode)
	}

	var stats server.StatsResponse
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if stats.Generation != gen.Gen || stats.Fingerprints != gen.Index.Len() {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Endpoints["jobs"].Requests < 1 || stats.Endpoints["clusters"].Errors < 2 {
		t.Errorf("endpoint counters not moving: %+v", stats.Endpoints)
	}
	if stats.Endpoints["jobs"].LatencyNSTotal <= 0 {
		t.Errorf("jobs latency gauge = %d, want > 0", stats.Endpoints["jobs"].LatencyNSTotal)
	}

	if stats.Refreshes != cat.Refreshes() || stats.LastSeq != gen.LastSeq || stats.Jobs != gen.Stats.Jobs {
		t.Errorf("stats = %+v, want the generation's last_seq and jobs, %d refreshes", stats, cat.Refreshes())
	}

	// /metrics is the one exposition: nothing answers on /debug/vars.
	if r := getJSON(t, ts.URL+"/debug/vars", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status = %d, want 404", r.StatusCode)
	}
}

// TestIdentifyDuringLiveIngest is the acceptance e2e: queries run against a
// store that is being written and refreshed concurrently, and at every
// observed generation the server's ranking equals the offline
// Dataset.SimilaritySearch over that same generation's dataset; after the
// final refresh it also equals a cold offline pass over a fresh store
// snapshot.
func TestIdentifyDuringLiveIngest(t *testing.T) {
	db, cat, ts := newServed(t, 2)

	q := server.IdentifyRequest{FileH: digest(t, appContent("lammps", 39))}
	const jobs = 16
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // live ingest + periodic refresh
		defer wg.Done()
		defer close(done)
		for j := 2; j <= jobs; j++ {
			seedJob(t, db, j, 1733900000+int64(j))
			cat.Refresh()
		}
	}()

	var lastGen uint64
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		out, resp := postIdentify(t, ts.URL, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("identify during ingest: status %d", resp.StatusCode)
		}
		if out.Generation < lastGen {
			t.Fatalf("served generation moved backwards: %d after %d", out.Generation, lastGen)
		}
		lastGen = out.Generation
	}
	wg.Wait()

	// Converged: the served ranking equals both the generation's offline
	// search and a cold consolidation of a fresh snapshot.
	cat.Refresh()
	gen := cat.Generation()
	out, _ := postIdentify(t, ts.URL, q)
	if out.Generation != gen.Gen || out.LastSeq != gen.LastSeq {
		t.Fatalf("post-ingest identify generation = %d/%d, want %d/%d", out.Generation, out.LastSeq, gen.Gen, gen.LastSeq)
	}
	unknown, ok := gen.Dataset.FindUnknown()
	if !ok {
		t.Fatal("no UNKNOWN baseline after ingest")
	}
	if unknown.FileH != q.FileH {
		t.Fatalf("baseline FILE_H diverged from the query digest")
	}
	offline := report.JSONSimilarityRows(
		analysis.NewFingerprintIndex(gen.Dataset.Records).Search(analysis.Digests{File: q.FileH}, server.DefaultTopK, ssdeep.BackendWeighted))
	if !reflect.DeepEqual(out.Rows, offline) {
		t.Errorf("served rows diverge from generation-offline search:\n got  %+v\n want %+v", out.Rows, offline)
	}
	coldData, _ := analysis.ConsolidateDataset(db.Snapshot(), postprocess.StreamOptions{})
	cold := report.JSONSimilarityRows(
		analysis.NewFingerprintIndex(coldData.Records).Search(analysis.Digests{File: q.FileH}, server.DefaultTopK, ssdeep.BackendWeighted))
	if !reflect.DeepEqual(out.Rows, cold) {
		t.Errorf("served rows diverge from cold offline search:\n got  %+v\n want %+v", out.Rows, cold)
	}
	if len(out.Rows) == 0 || out.Rows[0].Label != "LAMMPS" {
		t.Errorf("live-ingested lammps builds not identified: %+v", out.Rows)
	}
}

func TestGracefulShutdown(t *testing.T) {
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedJob(t, db, 0, 1733900000)
	cat := catalog.New(catalog.StoreSource(db), catalog.Options{})
	cat.Refresh()

	srv := server.NewWithMetrics(cat, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var health server.HealthResponse
	getJSON(t, "http://"+ln.Addr().String()+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}
