// Package server is the online query tier: an HTTP JSON API answering
// recognition requests against a catalog of consolidated fingerprints while
// ingest keeps running. Every handler loads the current catalog generation
// exactly once and serves the whole request from that immutable state, so a
// response is always internally consistent and reflects every stored row
// with seq <= its reported last_seq — the serving-side face of the snapshot
// consistency contract (DESIGN.md §8).
//
// API (all responses JSON):
//
//	POST /api/v1/identify            six characteristic digests in, top-K
//	                                 similarity ranking out (Table 7 math)
//	GET  /api/v1/jobs                jobs of the served generation
//	GET  /api/v1/clusters?threshold= similarity clusters of user executables
//	GET  /api/v1/report              full evaluation (report.JSONReport)
//	GET  /api/v1/stats               catalog generation + request counters
//	GET  /healthz                    liveness
//	GET  /metrics                    Prometheus text exposition (internal/obs)
//
// Every endpoint has exactly two instruments (internal/obs): a log-bucketed
// latency histogram, whose count and sum are the endpoint's request count
// and cumulative latency, and an error counter. /metrics exposes them, and
// /api/v1/stats renders the same two instruments with the histogram's tail
// percentiles added.
//
// The server owns a dedicated mux and http.Server — nothing registers on
// http.DefaultServeMux, so many servers coexist in one process (tests, a
// receiver serving next to its metrics listener) and Shutdown drains
// cleanly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"siren/internal/analysis"
	"siren/internal/catalog"
	"siren/internal/obs"
	"siren/internal/report"
	"siren/internal/ssdeep"
)

// DefaultTopK is the identify ranking depth when the request does not ask
// for one.
const DefaultTopK = 10

// endpointVars are one endpoint's instruments, the single source of both
// /metrics and /api/v1/stats: lat's Count and Sum are the request count
// and cumulative latency, errs counts failed requests.
type endpointVars struct {
	lat  *obs.Histogram
	errs *obs.Counter
}

// Server is the query tier over one catalog.
type Server struct {
	cat *catalog.Catalog
	mux *http.ServeMux
	hs  *http.Server
	reg *obs.Registry // the /metrics registry; shared when injected

	endpoints map[string]*endpointVars
	started   time.Time

	// Derived-artifact memo for the current generation: report assembly and
	// clustering are deterministic over an immutable generation, so repeated
	// polls must not recompute them (clustering is O(n²) ssdeep
	// comparisons). Entries carry their own sync.Once, so K concurrent cold
	// polls of one key compute once and share the result, while other keys
	// and endpoints proceed untouched (cacheMu is never held across a
	// compute or a network write). Evicted when the generation advances.
	cacheMu        sync.Mutex
	cacheGen       uint64
	cachedReport   *reportEntry
	cachedClusters map[string]*clustersEntry
}

// reportEntry / clustersEntry are once-per-generation computations.
type reportEntry struct {
	once sync.Once
	rep  *report.JSONReport
}

type clustersEntry struct {
	once sync.Once
	resp *ClustersResponse
}

// NewWithMetrics builds a server over cat with a dedicated mux, whose
// instruments register into reg, so a process running several tiers (a
// receiver with -serve-addr) exposes one unified /metrics covering all of
// them. A nil reg gets a private registry.
func NewWithMetrics(cat *catalog.Catalog, reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry("siren-server")
	}
	s := &Server{
		cat:            cat,
		mux:            http.NewServeMux(),
		reg:            reg,
		endpoints:      make(map[string]*endpointVars),
		started:        time.Now(),
		cachedClusters: make(map[string]*clustersEntry),
	}
	s.hs = &http.Server{Handler: s.mux}

	s.handle("identify", "/api/v1/identify", s.handleIdentify)
	s.handle("jobs", "/api/v1/jobs", s.handleJobs)
	s.handle("clusters", "/api/v1/clusters", s.handleClusters)
	s.handle("report", "/api/v1/report", s.handleReport)
	s.handle("stats", "/api/v1/stats", s.handleStats)
	s.handle("healthz", "/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", s.reg.Handler())
	return s
}

// apiError carries an HTTP status with its message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// committedWriter tracks whether the response header has been sent, so the
// error path never writes a second header into a partially streamed body.
type committedWriter struct {
	http.ResponseWriter
	committed bool
}

func (cw *committedWriter) WriteHeader(status int) {
	cw.committed = true
	cw.ResponseWriter.WriteHeader(status)
}

func (cw *committedWriter) Write(p []byte) (int, error) {
	cw.committed = true
	return cw.ResponseWriter.Write(p)
}

// handle wires one instrumented endpoint: its latency histogram and error
// counter.
func (s *Server) handle(name, pattern string, h func(w http.ResponseWriter, r *http.Request) error) {
	ev := &endpointVars{
		lat:  s.reg.Histogram("siren_http_request_ns", "request latency per endpoint", obs.L("endpoint", name)),
		errs: s.reg.Counter("siren_http_errors_total", "requests answered with an error status per endpoint", obs.L("endpoint", name)),
	}
	s.endpoints[name] = ev

	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &committedWriter{ResponseWriter: w}
		err := h(cw, r)
		ev.lat.Since(start)
		if err == nil {
			return
		}
		if cw.committed {
			// The 200 header (and part of the body) is already on the wire
			// — almost always a client that went away mid-response. Writing
			// an error header now would be a protocol violation, and
			// counting it would inflate the operator-facing error gauge
			// with every disconnect.
			return
		}
		ev.errs.Inc()
		status := http.StatusInternalServerError
		var ae *apiError
		if errors.As(err, &ae) {
			status = ae.status
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	})
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	return json.NewEncoder(w).Encode(v)
}

// ---------------------------------------------------------------------------
// Request/response shapes. Similarity rows reuse report.JSONSimilarityRow —
// the same structs siren-analyze -json emits.

// IdentifyRequest is the identify body: the six characteristic digests of an
// unknown executable (any subset may be empty, but not all), plus ranking
// controls.
type IdentifyRequest struct {
	ModulesH   string `json:"modules_h"`
	CompilersH string `json:"compilers_h"`
	ObjectsH   string `json:"objects_h"`
	FileH      string `json:"file_h"`
	StringsH   string `json:"strings_h"`
	SymbolsH   string `json:"symbols_h"`
	// Top bounds the ranking (0 = DefaultTopK, negative = all rows).
	Top int `json:"top"`
	// Backend names the edit distance: weighted (default) | damerau |
	// levenshtein.
	Backend string `json:"backend"`
}

// IdentifyResponse is the ranking plus the generation it was computed
// against.
type IdentifyResponse struct {
	Generation uint64                     `json:"generation"`
	LastSeq    uint64                     `json:"last_seq"`
	Rows       []report.JSONSimilarityRow `json:"rows"`
}

// JobsResponse lists the jobs of the served generation.
type JobsResponse struct {
	Generation uint64    `json:"generation"`
	LastSeq    uint64    `json:"last_seq"`
	Jobs       []JobJSON `json:"jobs"`
}

// JobJSON is one job summary.
type JobJSON struct {
	JobID     string `json:"job_id"`
	Processes int    `json:"processes"`
	Messages  int    `json:"messages"`
}

// ClusterJSON is one similarity cluster.
type ClusterJSON struct {
	DominantLabel string   `json:"dominant_label"`
	Labels        []string `json:"labels"`
	Members       []string `json:"members"`
	Processes     int      `json:"processes"`
}

// ClustersResponse is the clusters listing.
type ClustersResponse struct {
	Generation uint64        `json:"generation"`
	LastSeq    uint64        `json:"last_seq"`
	Threshold  int           `json:"threshold"`
	Purity     float64       `json:"purity"`
	Clusters   []ClusterJSON `json:"clusters"`
}

// ReportResponse wraps the shared report shape with the generation header.
type ReportResponse struct {
	Generation uint64             `json:"generation"`
	LastSeq    uint64             `json:"last_seq"`
	Report     *report.JSONReport `json:"report"`
}

// EndpointStats are one endpoint's counters in /api/v1/stats, all read
// from its latency histogram and error counter. The original cumulative
// fields are kept byte-compatible; the percentile fields are additive — a
// cumulative sum divided by requests is a mean, and a mean hides exactly
// the tail an operator is hunting.
type EndpointStats struct {
	Requests       int64 `json:"requests"`
	Errors         int64 `json:"errors"`
	LatencyNSTotal int64 `json:"latency_ns_total"`
	LatencyP50NS   int64 `json:"latency_p50_ns"`
	LatencyP90NS   int64 `json:"latency_p90_ns"`
	LatencyP99NS   int64 `json:"latency_p99_ns"`
	LatencyMaxNS   int64 `json:"latency_max_ns"`
}

// RefreshJSON describes the catalog's most recent refresh pass.
type RefreshJSON struct {
	Gen            uint64 `json:"generation"`
	LastSeq        uint64 `json:"last_seq"`
	NewRows        uint64 `json:"new_rows"`
	Jobs           int    `json:"jobs"`
	Reconsolidated int    `json:"reconsolidated"`
	Carried        int    `json:"carried"`
	NoOp           bool   `json:"noop"`
	ElapsedNS      int64  `json:"elapsed_ns"`
}

// StatsResponse is the serving-tier stats summary.
type StatsResponse struct {
	Generation   uint64                   `json:"generation"`
	LastSeq      uint64                   `json:"last_seq"`
	Jobs         int                      `json:"jobs"`
	Processes    int                      `json:"processes"`
	Fingerprints int                      `json:"fingerprints"`
	Refreshes    uint64                   `json:"refreshes"`
	LastRefresh  *RefreshJSON             `json:"last_refresh,omitempty"`
	UptimeNS     int64                    `json:"uptime_ns"`
	Endpoints    map[string]EndpointStats `json:"endpoints"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
}

// ---------------------------------------------------------------------------
// Handlers. Each loads the generation pointer once; everything it returns is
// computed from that one immutable state.

func (s *Server) handleIdentify(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return &apiError{status: http.StatusMethodNotAllowed, msg: "identify wants POST"}
	}
	var req IdentifyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return badRequest("bad identify body: %v", err)
	}
	q := analysis.Digests{
		Modules:   req.ModulesH,
		Compilers: req.CompilersH,
		Objects:   req.ObjectsH,
		File:      req.FileH,
		Strings:   req.StringsH,
		Symbols:   req.SymbolsH,
	}
	if q.Empty() {
		return badRequest("identify needs at least one characteristic digest")
	}
	backend, err := ssdeep.ParseBackend(req.Backend)
	if err != nil {
		return badRequest("%v", err)
	}
	top := req.Top
	switch {
	case top == 0:
		top = DefaultTopK
	case top < 0:
		top = 0 // FingerprintIndex.Search: <= 0 returns all rows
	}
	g := s.cat.Generation()
	return writeJSON(w, IdentifyResponse{
		Generation: g.Gen,
		LastSeq:    g.LastSeq,
		Rows:       report.JSONSimilarityRows(g.Index.Search(q, top, backend)),
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &apiError{status: http.StatusMethodNotAllowed, msg: "jobs wants GET"}
	}
	g := s.cat.Generation()
	resp := JobsResponse{Generation: g.Gen, LastSeq: g.LastSeq, Jobs: []JobJSON{}}
	for _, j := range g.Jobs() {
		resp.Jobs = append(resp.Jobs, JobJSON{JobID: j.JobID, Processes: j.Processes, Messages: j.Messages})
	}
	return writeJSON(w, resp)
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &apiError{status: http.StatusMethodNotAllowed, msg: "clusters wants GET"}
	}
	ts := r.URL.Query().Get("threshold")
	if ts == "" {
		return badRequest("clusters needs ?threshold=1..100")
	}
	threshold, err := strconv.Atoi(ts)
	if err != nil || threshold < 1 || threshold > 100 {
		return badRequest("bad threshold %q: want 1..100", ts)
	}
	backend, err := ssdeep.ParseBackend(r.URL.Query().Get("backend"))
	if err != nil {
		return badRequest("%v", err)
	}
	g := s.cat.Generation()
	compute := func() *ClustersResponse {
		cs := g.Dataset.SimilarityClusters(threshold, backend)
		purity, _ := analysis.ClusterPurity(cs)
		resp := &ClustersResponse{
			Generation: g.Gen, LastSeq: g.LastSeq,
			Threshold: threshold, Purity: purity, Clusters: []ClusterJSON{},
		}
		for _, c := range cs {
			cj := ClusterJSON{DominantLabel: c.DominantLabel(), Labels: c.Labels, Processes: c.Processes}
			for _, m := range c.Members {
				cj.Members = append(cj.Members, m.Exe)
			}
			resp.Clusters = append(resp.Clusters, cj)
		}
		return resp
	}
	key := fmt.Sprintf("%d|%d", threshold, backend)
	s.cacheMu.Lock()
	atGen := s.cacheAtLocked(g.Gen)
	var e *clustersEntry
	if atGen {
		if e = s.cachedClusters[key]; e == nil {
			e = &clustersEntry{}
			s.cachedClusters[key] = e
		}
	}
	s.cacheMu.Unlock()
	if e == nil {
		// A refresh landed between loading g and taking the lock: answer
		// from g uncached rather than polluting the newer generation's memo.
		return writeJSON(w, compute())
	}
	e.once.Do(func() { e.resp = compute() })
	return writeJSON(w, e.resp)
}

// cacheAtLocked advances the derived-artifact memo to gen when gen is newer
// and reports whether the memo is at gen. Generations are monotone, so a
// request that loaded an older generation pointer (a refresh landed between
// its load and the lock) must neither read nor wipe the newer generation's
// cache — it computes its answer uncached instead. Caller holds cacheMu.
func (s *Server) cacheAtLocked(gen uint64) bool {
	if gen > s.cacheGen {
		s.cacheGen = gen
		s.cachedReport = nil
		s.cachedClusters = make(map[string]*clustersEntry)
	}
	return s.cacheGen == gen
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &apiError{status: http.StatusMethodNotAllowed, msg: "report wants GET"}
	}
	g := s.cat.Generation()
	s.cacheMu.Lock()
	var e *reportEntry
	if s.cacheAtLocked(g.Gen) {
		if e = s.cachedReport; e == nil {
			e = &reportEntry{}
			s.cachedReport = e
		}
	}
	s.cacheMu.Unlock()
	rep := (*report.JSONReport)(nil)
	if e != nil {
		e.once.Do(func() { e.rep = report.BuildJSON(g.Dataset, g.Stats) })
		rep = e.rep
	} else {
		// Stale generation pointer (refresh raced the lock): uncached.
		rep = report.BuildJSON(g.Dataset, g.Stats)
	}
	return writeJSON(w, ReportResponse{
		Generation: g.Gen,
		LastSeq:    g.LastSeq,
		Report:     rep,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &apiError{status: http.StatusMethodNotAllowed, msg: "stats wants GET"}
	}
	g := s.cat.Generation()
	resp := StatsResponse{
		Generation:   g.Gen,
		LastSeq:      g.LastSeq,
		Jobs:         g.Stats.Jobs,
		Processes:    g.Stats.Processes,
		Fingerprints: g.Index.Len(),
		Refreshes:    s.cat.Refreshes(),
		UptimeNS:     time.Since(s.started).Nanoseconds(),
		Endpoints:    make(map[string]EndpointStats, len(s.endpoints)),
	}
	if rs, ok := s.cat.LastRefresh(); ok {
		resp.LastRefresh = &RefreshJSON{
			Gen: rs.Gen, LastSeq: rs.LastSeq, NewRows: rs.NewRows, Jobs: rs.Jobs,
			Reconsolidated: rs.Reconsolidated, Carried: rs.Carried, NoOp: rs.NoOp,
			ElapsedNS: rs.Elapsed.Nanoseconds(),
		}
	}
	for name, ev := range s.endpoints {
		hs := ev.lat.Snapshot()
		resp.Endpoints[name] = EndpointStats{
			Requests:       int64(hs.Count),
			Errors:         ev.errs.Value(),
			LatencyNSTotal: hs.Sum,
			LatencyP50NS:   hs.P50,
			LatencyP90NS:   hs.P90,
			LatencyP99NS:   hs.P99,
			LatencyMaxNS:   hs.Max,
		}
	}
	return writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, HealthResponse{Status: "ok", Generation: s.cat.Generation().Gen})
}

// ---------------------------------------------------------------------------
// Lifecycle.

// Handler exposes the dedicated mux (httptest servers, embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown; it returns
// http.ErrServerClosed after a clean shutdown, exactly as http.Server.Serve.
func (s *Server) Serve(ln net.Listener) error { return s.hs.Serve(ln) }

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests drain until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error { return s.hs.Shutdown(ctx) }
