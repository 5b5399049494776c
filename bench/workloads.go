package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"siren/internal/analysis"
	"siren/internal/postprocess"
	"siren/internal/report"
	"siren/internal/server"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// sizes are the inputs of the four workloads, chosen for 2 vCPUs and for a
// driver that makes some ninety runs in under an hour: one run, with its
// three set-ups and its restarts, fits in under 30 s.
type sizes struct {
	seconds float64 // timed window
	setups  int     // complete set-ups per run; the medians are reported

	campaignScale float64 // campaign.Config.Scale of the capture that is tiled into traffic
	ingestRate    int     // campaign-ingest, datagram/s
	mixedRate     int     // mixed-live, datagram/s

	catalogueN        int     // pre-loaded user executables, in families of 64
	identifyRate      float64 // identify-serve, request/s
	mixedIdentifyRate float64 // mixed-live, request/s
	warmup            int     // identify requests before the window

	restartRows    int // restart-analyze: rows of the store
	sealEvery      int // restart-analyze: Seal after this many rows; the rest stays in the WAL head
	restartWarmups int // restart and siren-analyze pairs on the closed store that are run and checked, not timed
	restartReps    int // timed pairs after those; restart-analyze fills its window with more
}

func defaultSizes(seconds float64) sizes {
	return sizes{
		seconds: seconds, setups: 3,
		campaignScale: 0.02, ingestRate: 20000, mixedRate: 10000,
		catalogueN: 5120, identifyRate: 50, mixedIdentifyRate: 25, warmup: 200,
		restartRows: 140000, sealEvery: 50000, restartWarmups: 1, restartReps: 6,
	}
}

// env is one run of one workload.
type env struct {
	root, out string
	bins      binaries
	h         *hygiene
	seed      int64
	sz        sizes
	rec       *recorder // non-nil in the traced run

	// What the traced run's layer replays work on.
	st                     *stage
	windowStart, windowEnd time.Time
	ident                  *identifyResult
	rt                     runtimeSample
	windowSUT, lastSUT     *inprocSUT // the in-process systems that served the window and that stopped last
}

// stage is everything one set-up produces.
type stage struct {
	dir, store string
	sut        sut

	tr      *traffic   // datagrams offered over UDP in the window
	cat     *catalogue // executables pre-loaded into the store
	pool    []query
	preRows int // rows in the store before the window

	captureDur      time.Duration // generator side: campaign.Run
	captured, procs int
}

func (e *env) runWorkload(name string, spec *benchSpec, runID string) (*result, error) {
	r := &result{Workload: name, Traced: e.rec != nil, Metrics: make(map[string]metricValue)}
	var err error
	switch name {
	case "campaign-ingest":
		err = e.campaignIngest(r)
	case "identify-serve":
		err = e.identifyServe(r)
	case "mixed-live":
		err = e.mixedLive(r)
	case "restart-analyze":
		err = e.restartAnalyze(r)
	default:
		err = fmt.Errorf("no such workload")
	}
	if err == nil && e.rec != nil {
		if err = e.layerMetrics(r); err == nil {
			for _, sm := range spec.PerLayer {
				if _, ok := r.Metrics[sm.Name]; !ok {
					r.set(sm.Name, 0, sm.Unit, 0) // a layer this workload does not use
				}
			}
			r.Budget = e.rec.budget(e.windowStart, e.windowEnd)
			err = e.rec.write(filepath.Join(e.out, "trace-"+name+".json"), runID, name, e.seed)
		}
	}
	if e.st != nil {
		e.stopSUT() // still running only when the workload failed
		e.h.removeDir(e.st.dir)
	}
	return r, err
}

// stopSUT shuts the stage's system down cleanly, if it still runs.
func (e *env) stopSUT() error {
	s := e.st.sut
	if s == nil {
		return nil
	}
	e.st.sut = nil
	if in, ok := s.(*inprocSUT); ok {
		e.lastSUT = in
	}
	return s.stop()
}

// setUp runs one complete set-up sz.setups times and keeps the last; the
// median of its wall time is setup_s.
func (e *env) setUp(r *result, once func(st *stage) error) error {
	var setupS []float64
	for i := 0; i < e.sz.setups; i++ {
		if e.st != nil {
			if err := e.stopSUT(); err != nil {
				return err
			}
			e.h.removeDir(e.st.dir)
		}
		began := time.Now()
		e.st = &stage{}
		var err error
		if e.st.dir, err = e.h.tempDir(e.out, r.Workload+"-"); err != nil {
			return err
		}
		e.st.store = filepath.Join(e.st.dir, "store.wal")
		if err := once(e.st); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(began).Seconds())
	}
	r.set("setup_s", median(setupS), "s", len(setupS))
	r.keep("setup_s", setupS)
	return nil
}

// launch starts the system under test on the stage's store and waits for
// its first correct answer; it returns the time from exec to that answer.
func (e *env) launch(st *stage, kind sutKind, probe func(*apiClient) bool) (time.Duration, error) {
	start := time.Now()
	var err error
	if e.rec != nil {
		st.sut, err = startInprocSUT(e.rec, kind, st.store)
	} else {
		st.sut, err = e.h.startChildSUT(e.bins, kind, st.store)
	}
	if err != nil {
		st.sut = nil
		return 0, err
	}
	api := newAPIClient(st.sut.apiAddr(), nil)
	defer api.close()
	if err := st.sut.awaitReady(func() bool { return probe(api) }); err != nil {
		st.sut = nil
		return 0, err
	}
	return time.Since(start), nil
}

func probeStats(api *apiClient) bool {
	var s server.StatsResponse
	return api.getJSON("/api/v1/stats", &s) == nil
}

// probeLastExe is true once the newest pre-loaded executable leads its own
// identify answer: the served generation covers the whole store.
func probeLastExe(c *catalogue) func(*apiClient) bool {
	last := c.exes[len(c.exes)-1]
	q := query{kind: kindExact, family: last.family, digests: last.digests}
	return func(api *apiClient) bool { return api.identify(q) == nil }
}

func probeRows(rows int) func(*apiClient) bool {
	return func(api *apiClient) bool {
		var jobs server.JobsResponse
		if api.getJSON("/api/v1/jobs", &jobs) != nil {
			return false
		}
		n := 0
		for _, j := range jobs.Jobs {
			n += j.Messages
		}
		return n == rows
	}
}

// capture generates the workload's campaign traffic: want datagrams.
func (e *env) capture(st *stage, want int) error {
	start := time.Now()
	dgrams, procs, err := campaignCapture(e.seed, e.sz.campaignScale)
	if err != nil {
		return err
	}
	st.captureDur, st.captured, st.procs = time.Since(start), len(dgrams), procs
	st.tr, err = campaignTraffic(dgrams, want)
	return err
}

// preload writes the catalogue into a fresh store through the store's own
// API and seals it, as a receiver that ran for months would have left it.
func (e *env) preload(st *stage) error {
	st.cat = newCatalogue(e.seed, e.sz.catalogueN)
	db, err := sirendb.OpenOptions(st.store, sirendb.Options{})
	if err != nil {
		return err
	}
	for i := range st.cat.exes {
		if err := db.InsertBatch(st.cat.messages(i)); err != nil {
			_ = db.Close() // the insert error is the one to report
			return err
		}
	}
	st.preRows = len(st.cat.exes) * rowsPerExe
	if err := db.Seal(); err != nil {
		_ = db.Close() // the seal error is the one to report
		return err
	}
	return db.Close()
}

// beginWindow marks the start of the timed window and, in the traced run,
// starts watching the Go runtime; the function it returns marks the end.
func (e *env) beginWindow() (end func()) {
	stop := make(chan struct{})
	done := make(chan runtimeSample, 1)
	if e.rec != nil {
		go func() { done <- sampleRuntime(stop) }()
	}
	e.windowStart = time.Now()
	return func() {
		e.windowEnd = time.Now()
		if e.rec != nil {
			close(stop)
			e.rt = <-done
		}
	}
}

// window offers the stage's traffic and identify requests for sz.seconds
// and reports what a user of the system would have seen. It returns the
// rows the query API reported once everything offered was queryable.
func (e *env) window(r *result, rate int, identRate float64) (int, error) {
	st := e.st
	api := newAPIClient(st.sut.apiAddr(), e.rec)
	defer api.close()
	cpu0, _, err := st.sut.usage()
	if err != nil {
		return 0, err
	}
	endWindow := e.beginWindow()

	var (
		wg      sync.WaitGroup
		poller  *lagPoller
		send    sendResult
		sendErr error
	)
	if st.tr != nil {
		poller = newLagPoller(api, st.tr)
		sendEnd := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(sendEnd)
			send, sendErr = sendTraffic(st.sut.udpAddr(), st.tr, rate, poller.sentAt)
		}()
		go func() {
			defer wg.Done()
			poller.run(sendEnd)
		}()
	}
	if st.pool != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.ident = runIdentify(api, st.pool, identRate, int(identRate*e.sz.seconds))
		}()
	}
	wg.Wait()
	endWindow()
	cpu1, rss, err := st.sut.usage()
	if err != nil {
		return 0, err
	}
	if sendErr != nil {
		return 0, sendErr
	}

	cpu := (cpu1 - cpu0).Seconds()
	r.set("sut_cpu_s", cpu, "s", 0)
	r.set("sut_peak_rss_mb", rss, "MB", 0)
	lateMS := append([]float64(nil), send.lateMS...)
	rows := st.preRows
	if poller != nil {
		offered := len(st.tr.dgrams)
		r.set("sut_cpu_us_per_dgram", cpu*1e6/float64(offered), "us", offered)
		lag := append([]float64(nil), poller.lagS...)
		for i := 0; i < poller.pending; i++ {
			lag = append(lag, drainLimit.Seconds()) // never queryable: misses any limit
		}
		r.set("queryable_lag_p50_s", quantile(lag, 0.50), "s", len(lag))
		r.set("queryable_lag_p95_s", quantile(lag, 0.95), "s", len(lag))
		rows = poller.stored
		lost := offered - (rows - st.preRows)
		r.set("ingest_loss_frac", float64(lost)/float64(offered), "fraction", offered)
		r.set("loadgen.jobs_incomplete_frac", float64(poller.pending)/float64(len(st.tr.jobs)), "fraction", len(st.tr.jobs))
		r.set("loadgen.send_errors", float64(send.sendErrors), "count", offered)
		fails := failureLog{n: max(lost, 0)}
		if lost != 0 {
			fails.msgs = []string{fmt.Sprintf("%d of %d datagrams offered are not in the served jobs", lost, offered)}
		}
		r.operations(offered, fails)
		r.operations(poller.fails.n, poller.fails)
		r.check(send.sendErrors == 0, "%d datagram sends failed locally", send.sendErrors)
	}
	if id := e.ident; id != nil {
		if poller == nil {
			r.set("sut_cpu_us_per_query", cpu*1e6/float64(id.attempted), "us", id.attempted)
		}
		r.set("identify_p50_ms", quantile(id.latMS, 0.50), "ms", len(id.latMS))
		r.set("identify_p95_ms", quantile(id.latMS, 0.95), "ms", len(id.latMS))
		r.set("loadgen.identify_p99_ms", quantile(id.latMS, 0.99), "ms", len(id.latMS))
		r.set("identify_fail_frac", float64(id.fails.n)/float64(id.attempted), "fraction", id.attempted)
		r.operations(id.attempted, id.fails)
		lateMS = append(lateMS, id.lateMS...)
	}
	r.set("loadgen.late_ms_p99", quantile(lateMS, 0.99), "ms", len(lateMS))
	return rows, nil
}

// diskUsage is what a closed store occupies.
type diskUsage struct {
	walBytes, runBytes int64
	runFiles           int
}

func storeDisk(store string) (diskUsage, error) {
	var du diskUsage
	entries, err := os.ReadDir(filepath.Dir(store))
	if err != nil {
		return du, err
	}
	base := filepath.Base(store) + "."
	for _, ent := range entries {
		rest, ok := strings.CutPrefix(ent.Name(), base)
		if !ok {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return du, err
		}
		switch {
		case strings.HasPrefix(rest, "run."):
			du.runBytes += info.Size()
			du.runFiles++
		case strings.Trim(rest, "0123456789") == "":
			du.walBytes += info.Size()
		}
	}
	return du, nil
}

// analyzeInProcess is cmd/siren-analyze -json assembled from the layers,
// one span per layer.
func (e *env) analyzeInProcess(store string) (out []byte, err error) {
	var set *sirendb.DBSet
	e.rec.timed(spanOpen, func() int {
		set, err = sirendb.OpenSet([]string{store}, sirendb.Options{})
		return 0
	})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, set.Close()) }()
	var snap *sirendb.MergedSnapshot
	e.rec.timed(spanSnapshot, func() int { snap = set.Snapshot(); return 0 })
	var data *analysis.Dataset
	var stats postprocess.Stats
	e.rec.timed("postprocess.consolidate", func() int {
		data, stats = analysis.ConsolidateDataset(snap, postprocess.StreamOptions{})
		return stats.Messages
	})
	var rep *report.JSONReport
	e.rec.timed("report.build_json", func() int { rep = report.BuildJSON(data, stats); return 0 })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// analyze runs siren-analyze -json on the closed store.
func (e *env) analyze(store string) (analyzeRun, error) {
	if e.rec == nil {
		return runAnalyze(e.bins.analyze, store)
	}
	cpu0, _, err := selfUsage()
	if err != nil {
		return analyzeRun{}, err
	}
	start := time.Now()
	out, err := e.analyzeInProcess(store)
	wall := time.Since(start)
	if err != nil {
		return analyzeRun{}, err
	}
	cpu1, rss, err := selfUsage()
	return analyzeRun{out: out, wall: wall, cpu: cpu1 - cpu0, rssMB: rss}, err
}

// restartSamples are the repetitions of restarts.
type restartSamples struct {
	readyS, analyzeS, cpuS []float64
	rssMB                  float64
	outputs                [][]byte
	served                 server.ReportResponse // the first restart's /api/v1/report
}

// restarts measures what the closed store costs to come back to: one after
// the other, (a) the serving binary from exec to its first correct answer
// over the whole store, and (b) siren-analyze -json from exec to exit. The
// first sz.restartWarmups pairs are not timed — the first start after the
// window's system stopped reads slower than every later one by a third —
// then at least sz.restartReps pairs are, and more until fill seconds have
// passed. The outputs of every pair, timed or not, are checked.
func (e *env) restarts(kind sutKind, probe func(*apiClient) bool, fill float64) (*restartSamples, error) {
	st := e.st
	rs := &restartSamples{}
	var begin time.Time
	for rep := -e.sz.restartWarmups; rep < e.sz.restartReps || time.Since(begin).Seconds() < fill; rep++ {
		if rep == 0 {
			begin = time.Now()
		}
		cpu0, _, err := selfUsage()
		if err != nil {
			return nil, err
		}
		ready, err := e.launch(st, kind, probe)
		if err != nil {
			return nil, err
		}
		if len(rs.outputs) == 0 {
			api := newAPIClient(st.sut.apiAddr(), e.rec)
			err := api.getJSON("/api/v1/report", &rs.served)
			api.close()
			if err != nil {
				return nil, err
			}
		}
		s := st.sut
		if err := e.stopSUT(); err != nil {
			return nil, err
		}
		var cpu time.Duration
		var rss float64
		if c, ok := s.(*childSUT); ok {
			cpu, rss = c.exitUsage()
		}
		run, err := e.analyze(st.store)
		if err != nil {
			return nil, err
		}
		rs.outputs = append(rs.outputs, run.out)
		if e.rec != nil {
			// In-process, both halves run in this process: one rusage delta.
			cpu1, _, err := selfUsage()
			if err != nil {
				return nil, err
			}
			cpu = cpu1 - cpu0
		} else {
			cpu += run.cpu
		}
		if rep < 0 {
			continue
		}
		rs.readyS = append(rs.readyS, ready.Seconds())
		rs.analyzeS = append(rs.analyzeS, run.wall.Seconds())
		rs.cpuS = append(rs.cpuS, cpu.Seconds())
		rs.rssMB = max(rs.rssMB, rss, run.rssMB)
	}
	return rs, nil
}

// closedStore checks the store a clean shutdown left and measures what it
// costs at rest and to come back to: disk per datagram byte, restart to the
// first correct answer, and siren-analyze -json, whose report must count
// what the generator offered and equal the one the restarted system serves.
func (e *env) closedStore(r *result, kind sutKind, probe func(*apiClient) bool, fill float64, wantRows, wantJobs int, dgramBytes int64) (*restartSamples, error) {
	if err := checkStore(r, e.st.store, wantRows); err != nil {
		return nil, err
	}
	du, err := storeDisk(e.st.store)
	if err != nil {
		return nil, err
	}
	r.set("store_disk_amp", float64(du.walBytes+du.runBytes)/float64(dgramBytes), "ratio", 0)
	rs, err := e.restarts(kind, probe, fill)
	if err != nil {
		return nil, err
	}
	r.set("ready_s", median(rs.readyS), "s", len(rs.readyS))
	r.set("analyze_s", median(rs.analyzeS), "s", len(rs.analyzeS))
	r.keep("ready_s", rs.readyS)
	r.keep("analyze_s", rs.analyzeS)
	rep, err := checkReports(r, rs.outputs, wantJobs, wantRows)
	if err != nil {
		return nil, err
	}
	checkServedReport(r, rs.served, rep)
	return rs, nil
}

// finish stops the system that served the window and hands the store it
// leaves to closedStore.
func (e *env) finish(r *result, kind sutKind, probe func(*apiClient) bool, wantRows, wantJobs int, dgramBytes int64) error {
	if err := e.stopSUT(); err != nil {
		return err
	}
	e.windowSUT = e.lastSUT
	_, err := e.closedStore(r, kind, probe, 0, wantRows, wantJobs, dgramBytes)
	return err
}

// campaignIngest: a receiver on an empty store takes campaign traffic at
// 20 000 datagram/s; the only reader of the API is the lag poller.
func (e *env) campaignIngest(r *result) error {
	want := int(float64(e.sz.ingestRate) * e.sz.seconds)
	err := e.setUp(r, func(st *stage) error {
		if err := e.capture(st, want); err != nil {
			return err
		}
		_, err := e.launch(st, receiverLive, probeStats)
		return err
	})
	if err != nil {
		return err
	}
	rows, err := e.window(r, e.sz.ingestRate, 0)
	if err != nil {
		return err
	}
	return e.finish(r, receiverRestart, probeRows(rows), rows, len(e.st.tr.jobs), e.st.tr.bytes)
}

// identifyServe: siren-serve -readonly over a pre-loaded catalogue answers
// 50 identify/s drawn from exact, variant and unknown queries.
func (e *env) identifyServe(r *result) error {
	err := e.setUp(r, func(st *stage) error {
		if err := e.preload(st); err != nil {
			return err
		}
		st.pool = newQueryPool(e.seed, st.cat, queryPoolSize, true)
		if _, err := e.launch(st, serveReadonly, probeLastExe(st.cat)); err != nil {
			return err
		}
		return e.warm(st)
	})
	if err != nil {
		return err
	}
	if _, err := e.window(r, 0, e.sz.identifyRate); err != nil {
		return err
	}
	cat := e.st.cat.traffic()
	return e.finish(r, serveReadonly, probeLastExe(e.st.cat), e.st.preRows, len(cat.jobs), cat.bytes)
}

func (e *env) warm(st *stage) error {
	api := newAPIClient(st.sut.apiAddr(), nil)
	defer api.close()
	return warmUp(api, st.pool, e.sz.warmup)
}

// mixedLive: a receiver started on the pre-loaded catalogue takes campaign
// traffic at 10 000 datagram/s and 25 identify/s at once.
func (e *env) mixedLive(r *result) error {
	want := int(float64(e.sz.mixedRate) * e.sz.seconds)
	err := e.setUp(r, func(st *stage) error {
		if err := e.preload(st); err != nil {
			return err
		}
		st.pool = newQueryPool(e.seed, st.cat, queryPoolSize, false)
		if err := e.capture(st, want); err != nil {
			return err
		}
		if _, err := e.launch(st, receiverLive, probeLastExe(st.cat)); err != nil {
			return err
		}
		return e.warm(st)
	})
	if err != nil {
		return err
	}
	rows, err := e.window(r, e.sz.mixedRate, e.sz.mixedIdentifyRate)
	if err != nil {
		return err
	}
	cat := e.st.cat.traffic()
	return e.finish(r, receiverRestart, probeRows(rows), rows, len(cat.jobs)+len(e.st.tr.jobs), cat.bytes+e.st.tr.bytes)
}

// buildRestartStore writes tr into a fresh store in-process, sealing every
// sealEvery rows and leaving the rest in the WAL head: the shape a receiver
// killed between two seals leaves behind.
func buildRestartStore(store string, tr *traffic, sealEvery int) error {
	db, err := sirendb.OpenOptions(store, sirendb.Options{})
	if err != nil {
		return err
	}
	batch := make([]wire.Message, 0, 256)
	for i, d := range tr.dgrams {
		m, err := wire.Parse(d)
		if err != nil {
			_ = db.Close() // the insert error is the one to report
			return err
		}
		batch = append(batch, m)
		rows := i + 1
		if len(batch) < cap(batch) && rows%sealEvery != 0 && rows != len(tr.dgrams) {
			continue
		}
		if err := db.InsertBatch(batch); err != nil {
			_ = db.Close() // the insert error is the one to report
			return err
		}
		batch = batch[:0]
		if rows%sealEvery == 0 && rows != len(tr.dgrams) {
			if err := db.Seal(); err != nil {
				_ = db.Close() // the seal error is the one to report
				return err
			}
		}
	}
	return db.Close()
}

// restartAnalyze: on a store with sealed runs and a WAL head, the window
// is filled with restarts: (a) a receiver's start to its first complete
// /api/v1/jobs and (b) siren-analyze -json.
func (e *env) restartAnalyze(r *result) error {
	err := e.setUp(r, func(st *stage) error {
		if err := e.capture(st, e.sz.restartRows); err != nil {
			return err
		}
		return buildRestartStore(st.store, st.tr, e.sz.sealEvery)
	})
	if err != nil {
		return err
	}
	tr := e.st.tr
	endWindow := e.beginWindow()
	rs, err := e.closedStore(r, receiverRestart, probeRows(len(tr.dgrams)), e.sz.seconds, len(tr.dgrams), len(tr.jobs), tr.bytes)
	endWindow()
	if err != nil {
		return err
	}
	r.set("sut_cpu_s", median(rs.cpuS), "s", len(rs.cpuS))
	r.keep("sut_cpu_s", rs.cpuS)
	r.set("sut_peak_rss_mb", rs.rssMB, "MB", 0)
	return nil
}
