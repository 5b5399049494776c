// Catalog tests: the incremental refresh must be indistinguishable from a
// full rebuild (same records, same stats, same identify ranking) while
// re-reading only the jobs the watermark says changed, and the generation
// swap must be safe under concurrent queries (run with -race via make
// test-serve).
package catalog_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"siren/internal/analysis"
	"siren/internal/catalog"
	"siren/internal/obs"
	"siren/internal/postprocess"
	"siren/internal/report"
	"siren/internal/sirendb"
	"siren/internal/ssdeep"
	"siren/internal/wire"
)

// appContent fabricates varied pseudo-binary text for one app build: a
// per-app base body (CTPH needs non-periodic content) with a handful of
// variant-specific lines spliced in, so builds of one app hash similar and
// different apps hash unrelated.
func appContent(app string, variant int) string {
	h := 0
	for _, c := range app {
		h = h*31 + int(c)
	}
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		if variant > 0 && i == (variant*9)%390 {
			// One contiguous edit block per variant: CTPH digests stay
			// highly similar across builds of one app (edits spread through
			// the file would perturb most chunks and score ~0).
			for e := 0; e < 5; e++ {
				fmt.Fprintf(&sb, "%s build-edit v%d line %d\n", app, variant, e)
			}
		}
		fmt.Fprintf(&sb, "%s log %04d: residual %d.%03d at step %d sym_%06d\n",
			app, i, (h+i)%7, (i*37+h)%1000, i*3, (h+i*1009)%999983)
	}
	return sb.String()
}

// digestCache memoises content → digest: benchmarks rebuild stores with
// identical app builds thousands of times, and hashing dominates setup.
var digestCache sync.Map

func digest(t testing.TB, content string) string {
	t.Helper()
	if v, ok := digestCache.Load(content); ok {
		return v.(string)
	}
	d, err := ssdeep.HashString(content)
	if err != nil {
		t.Fatalf("HashString: %v", err)
	}
	digestCache.Store(content, d)
	return d
}

// procMessages is one user process's full constructor record set: METADATA
// plus the six characteristic digests, all single-chunk.
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

// jobBatchCache memoises a job's message batches: content is a pure
// function of (jobN, tm), and the benchmarks rebuild identical stores
// thousands of times.
var jobBatchCache sync.Map

// seedJob inserts one job: a labelled app process per host plus, for job 0,
// the UNKNOWN baseline binary.
func seedJob(t testing.TB, db *sirendb.DB, jobN int, tm int64) {
	key := fmt.Sprintf("%d|%d", jobN, tm)
	var batches [][]wire.Message
	if v, ok := jobBatchCache.Load(key); ok {
		batches = v.([][]wire.Message)
	} else {
		apps := []struct{ exe, app string }{
			{"/appl/lammps/bin/lmp_gpu", "lammps"},
			{"/appl/gromacs/bin/gmx", "gromacs"},
			{"/usr/bin/gzip", "gzip"},
		}
		a := apps[jobN%len(apps)]
		job := fmt.Sprintf("job-%d", jobN)
		for h := 0; h < 2; h++ {
			host := fmt.Sprintf("nid%04d", h)
			batches = append(batches, procMessages(t, job, host, 100+jobN*10+h, tm, a.exe, a.app, jobN+1))
		}
		if jobN == 0 {
			// The unknown: a fresh build of lammps under an unlabelled path.
			batches = append(batches, procMessages(t, job, "nid0000", 999, tm, "/users/u1/a.out", "lammps", 39))
		}
		jobBatchCache.Store(key, batches)
	}
	for _, msgs := range batches {
		if err := db.InsertBatch(msgs); err != nil {
			t.Fatal(err)
		}
	}
}

// reportJSON renders a dataset through the shared report shape — the
// strongest cheap equality: every table, figure, and stats field.
func reportJSON(t testing.TB, data *analysis.Dataset, stats postprocess.Stats) string {
	t.Helper()
	b, err := json.Marshal(report.BuildJSON(data, stats))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestIncrementalRefreshMatchesFull(t *testing.T) {
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const initialJobs = 8
	for j := 0; j < initialJobs; j++ {
		seedJob(t, db, j, 1733900000+int64(j))
	}

	reg := obs.NewRegistry("catalog-test")
	cat := catalog.New(catalog.StoreSource(db), catalog.Options{Metrics: reg})
	if g := cat.Generation(); g.Gen != 0 || g.Index.Len() != 0 {
		t.Fatalf("boot generation not empty: gen=%d fingerprints=%d", g.Gen, g.Index.Len())
	}
	initialRows := db.Count()
	rs := cat.Refresh()
	if rs.Gen != 1 || rs.Reconsolidated != initialJobs || rs.Carried != 0 || rs.NoOp {
		t.Fatalf("first refresh stats = %+v, want gen 1, %d reconsolidated, 0 carried", rs, initialJobs)
	}
	if rs.IndexElapsed <= 0 || rs.IndexElapsed > rs.Elapsed {
		t.Errorf("first refresh index time %v is not a part of the pass's %v", rs.IndexElapsed, rs.Elapsed)
	}
	if rs.RowsReconsolidated != initialRows {
		t.Errorf("full pass re-read %d rows, want the store's %d", rs.RowsReconsolidated, initialRows)
	}

	// Wave 2: one brand-new job, plus new processes appended to job-1.
	seedJob(t, db, initialJobs, 1733900100)
	if err := db.InsertBatch(procMessages(t, "job-1", "nid0007", 7777, 1733900100, "/appl/gromacs/bin/gmx", "gromacs", 17)); err != nil {
		t.Fatal(err)
	}
	rs = cat.Refresh()
	if rs.Gen != 2 || rs.Reconsolidated != 2 || rs.Carried != initialJobs-1 {
		t.Fatalf("incremental refresh stats = %+v, want gen 2, 2 reconsolidated, %d carried", rs, initialJobs-1)
	}
	changedRows := 0
	sn := db.Snapshot()
	for _, job := range []string{"job-1", fmt.Sprintf("job-%d", initialJobs)} {
		sn.JobRows(job, func(*wire.Scanned, uint64) bool { changedRows++; return true })
	}
	if rs.RowsReconsolidated != changedRows {
		t.Errorf("incremental pass re-read %d rows, want the two changed jobs' %d", rs.RowsReconsolidated, changedRows)
	}
	if got := reg.Counter("siren_catalog_rows_reconsolidated_total", "").Value(); got != int64(initialRows+changedRows) {
		t.Errorf("rows_reconsolidated_total = %d, want %d", got, initialRows+changedRows)
	}
	// The gen-2 fingerprint index must be a splice off gen 1, not a full
	// rebuild: a rebuild lands every fingerprint in the base block, a splice
	// keeps derived entries in the extra block (at this catalog size the
	// boot generation's base is empty, so everything rides extra).
	if s := cat.Generation().Index.Stats(); s.Extra == 0 {
		t.Errorf("gen-2 index stats = %+v, want spliced entries in the extra block", s)
	}
	if s := cat.Generation().Index.Stats(); rs.IndexBytes != s.Bytes || s.Bytes <= 0 || s.Postings < s.Grams || s.Grams <= 0 {
		t.Errorf("refresh reports %d index bytes for a generation of %+v", rs.IndexBytes, s)
	}

	// The incremental generation must be indistinguishable from a full
	// offline pass over the same snapshot.
	gen := cat.Generation()
	offData, offStats := analysis.ConsolidateDataset(db.Snapshot(), postprocess.StreamOptions{})
	if got, want := reportJSON(t, gen.Dataset, gen.Stats), reportJSON(t, offData, offStats); got != want {
		t.Errorf("incremental generation diverges from full consolidation:\n got %s\nwant %s", got, want)
	}

	// …and from a second catalog built in one shot.
	fresh := catalog.New(catalog.StoreSource(db), catalog.Options{})
	frs := fresh.Refresh()
	if frs.Reconsolidated != initialJobs+1 {
		t.Fatalf("fresh full refresh reconsolidated %d jobs, want %d", frs.Reconsolidated, initialJobs+1)
	}
	fgen := fresh.Generation()
	if gen.Index.Len() != fgen.Index.Len() {
		t.Fatalf("fingerprint count: incremental %d, full %d", gen.Index.Len(), fgen.Index.Len())
	}
	unknown, ok := gen.Dataset.FindUnknown()
	if !ok {
		t.Fatal("no UNKNOWN baseline in catalog dataset")
	}
	q := analysis.RecordDigests(unknown)
	inc := gen.Index.Search(q, 10, ssdeep.BackendWeighted)
	full := fgen.Index.Search(q, 10, ssdeep.BackendWeighted)
	if !reflect.DeepEqual(inc, full) {
		t.Errorf("identify ranking diverges:\n inc  %+v\n full %+v", inc, full)
	}
	if len(inc) == 0 || inc[0].Label != "LAMMPS" {
		t.Errorf("unknown lammps build not identified: %+v", inc)
	}
	// The shared implementation contract: the offline Table 7 search is
	// the same computation.
	if off := offData.SimilaritySearch(unknown, 10, ssdeep.BackendWeighted); !reflect.DeepEqual(inc, off) {
		t.Errorf("online vs offline ranking diverges:\n online  %+v\n offline %+v", inc, off)
	}

	// No new rows: refresh is a no-op and the pointer is untouched.
	rs = cat.Refresh()
	if !rs.NoOp || rs.Gen != 2 || rs.IndexElapsed != 0 {
		t.Fatalf("no-op refresh stats = %+v", rs)
	}
	if cat.Generation() != gen {
		t.Error("no-op refresh replaced the generation pointer")
	}
	// Three passes, two of which derived an index.
	if refreshes, builds := reg.Histogram("siren_catalog_refresh_ns", "").Snapshot().Count,
		reg.Histogram("siren_catalog_index_build_ns", "").Snapshot().Count; refreshes != 3 || builds != 2 {
		t.Errorf("refresh_ns count = %d, index_build_ns count = %d, want 3 and 2", refreshes, builds)
	}
}

// TestIncrementalRefreshTieOrder pins the record order itself, not just the
// report: records that tie on SortRecords' key — one PID on several hosts
// of a job, or in several steps — must come out of a merged refresh in
// exactly the order a full consolidation gives them, because
// selectFingerprints reads that order.
func TestIncrementalRefreshTieOrder(t *testing.T) {
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Every process of a job shares its PID, hash and time: they differ
	// only in host and step, so each job is one run of tied records.
	tied := func(job string, hosts, steps int) {
		var ms []wire.Message
		for h := 0; h < hosts; h++ {
			for s := 0; s < steps; s++ {
				ms = append(ms, wire.Message{
					Header: wire.Header{
						JobID: job, StepID: fmt.Sprint(s), PID: 500, Hash: "cafe",
						Host: fmt.Sprintf("nid%04d", h), Time: 1733900000,
						Layer: wire.LayerSelf, Type: wire.TypeMetadata, Seq: 0, Total: 1,
					},
					Content: []byte(fmt.Sprintf("EXE=/bin/app-%d-%d\nCATEGORY=user", h, s)),
				})
			}
		}
		if err := db.InsertBatch(ms); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 12; j++ {
		tied(fmt.Sprintf("job-%02d", j), 4, 3)
	}
	cat := catalog.New(catalog.StoreSource(db), catalog.Options{})
	cat.Refresh()

	// Wave 2 grows one old job and adds a new one; the other jobs ride
	// through the merge.
	tied("job-03", 6, 3)
	tied("job-99", 4, 3)
	if rs := cat.Refresh(); rs.Reconsolidated != 2 || rs.Carried != 11 {
		t.Fatalf("incremental refresh stats = %+v, want 2 reconsolidated, 11 carried", rs)
	}

	got := cat.Generation().Dataset.Records
	want, _ := postprocess.ConsolidateSnapshot(db.Snapshot(), postprocess.StreamOptions{})
	if len(got) != len(want) {
		t.Fatalf("merged refresh holds %d records, full pass %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: merged refresh has %s/%s/%s step %s, full pass %s/%s/%s step %s",
				i, got[i].JobID, got[i].Host, got[i].Exe, got[i].StepID,
				want[i].JobID, want[i].Host, want[i].Exe, want[i].StepID)
		}
	}
}

func TestCatalogOverMergedSet(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "m0.wal"), filepath.Join(dir, "m1.wal")}
	for mi, p := range paths {
		db, err := sirendb.OpenOptions(p, sirendb.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			seedJob(t, db, mi*3+j, 1733900000+int64(j))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	set, err := sirendb.OpenSet(paths, sirendb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	cat := catalog.New(catalog.SetSource(set), catalog.Options{})
	rs := cat.Refresh()
	if rs.Gen != 1 || rs.Jobs != 6 {
		t.Fatalf("merged refresh stats = %+v, want gen 1 over 6 jobs", rs)
	}
	gen := cat.Generation()
	offData, offStats := analysis.ConsolidateDataset(set.Snapshot(), postprocess.StreamOptions{})
	if got, want := reportJSON(t, gen.Dataset, gen.Stats), reportJSON(t, offData, offStats); got != want {
		t.Errorf("merged catalog diverges from merged consolidation:\n got %s\nwant %s", got, want)
	}
	// The locked set cannot change: a second refresh is a no-op.
	if rs = cat.Refresh(); !rs.NoOp {
		t.Fatalf("refresh over a static set not a no-op: %+v", rs)
	}
}

// TestCatalogOverFailoverSetCountsRunsOnce: after a failover merge-back one
// member holds a sub-multiset copy of a (job, host) run that another member
// holds in full (DESIGN.md §11). A catalog over that set — what siren-serve
// serves — must report exactly what the same rows stored once report, as
// siren-analyze does.
func TestCatalogOverFailoverSetCountsRunsOnce(t *testing.T) {
	dir := t.TempDir()
	owner, recovered, once := filepath.Join(dir, "owner.wal"), filepath.Join(dir, "recovered.wal"), filepath.Join(dir, "once.wal")
	for _, p := range []string{owner, once} {
		db, err := sirendb.OpenOptions(p, sirendb.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			seedJob(t, db, j, 1733900000+int64(j))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The recovered member ingested the first rows of job-1's nid0000 run,
	// out of order, before it died.
	db, err := sirendb.OpenOptions(recovered, sirendb.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := procMessages(t, "job-1", "nid0000", 110, 1733900001, "/appl/gromacs/bin/gmx", "gromacs", 2)
	if err := db.InsertBatch([]wire.Message{run[2], run[0], run[1], run[3]}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	stats := func(paths ...string) postprocess.Stats {
		set, err := sirendb.OpenSet(paths, sirendb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		cat := catalog.New(catalog.SetSource(set), catalog.Options{})
		cat.Refresh()
		return cat.Generation().Stats
	}
	want, got := stats(once), stats(owner, recovered)
	if got != want {
		t.Errorf("catalog over the failover set: stats %+v, want %+v (the rows stored once)", got, want)
	}
}

// TestConcurrentQueriesDuringRefresh hammers the generation pointer from
// query goroutines while ingest and refreshes run — the atomic-swap
// contract, checked under -race: a loaded generation stays internally
// consistent (dataset, stats, and index all describe the same records) and
// the observed generation number and watermark never move backwards.
func TestConcurrentQueriesDuringRefresh(t *testing.T) {
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedJob(t, db, 0, 1733900000)

	cat := catalog.New(catalog.StoreSource(db), catalog.Options{})
	cat.Refresh()

	const jobs = 24
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // ingest + refresh loop
		defer wg.Done()
		defer close(done)
		for j := 1; j <= jobs; j++ {
			seedJob(t, db, j, 1733900000+int64(j))
			rs := cat.Refresh()
			if rs.NoOp {
				panic("refresh after insert reported no-op")
			}
		}
	}()

	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen, lastSeq uint64
			q := analysis.Digests{File: digest(t, appContent("lammps", 5))}
			for {
				select {
				case <-done:
					return
				default:
				}
				gen := cat.Generation()
				if gen.Gen < lastGen || gen.LastSeq < lastSeq {
					errs <- fmt.Errorf("generation moved backwards: %d/%d after %d/%d", gen.Gen, gen.LastSeq, lastGen, lastSeq)
					return
				}
				lastGen, lastSeq = gen.Gen, gen.LastSeq
				if got := len(gen.Dataset.Records); got != gen.Stats.Processes {
					errs <- fmt.Errorf("generation %d inconsistent: %d records vs %d processes", gen.Gen, got, gen.Stats.Processes)
					return
				}
				gen.Index.Search(q, 5, ssdeep.BackendWeighted)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	gen := cat.Generation()
	if gen.Stats.Jobs != jobs+1 {
		t.Fatalf("final generation has %d jobs, want %d", gen.Stats.Jobs, jobs+1)
	}
	offData, offStats := analysis.ConsolidateDataset(db.Snapshot(), postprocess.StreamOptions{})
	if got, want := reportJSON(t, gen.Dataset, gen.Stats), reportJSON(t, offData, offStats); got != want {
		t.Errorf("final generation diverges from full consolidation")
	}
}
