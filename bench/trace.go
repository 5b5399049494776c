package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/catalog"
	"siren/internal/postprocess"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// span is one timed call across a layer boundary. Spans of one request
// share an identifier through Parent: the handler's span names the client's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Count  int    `json:"count,omitempty"` // rows, bytes or jobs counted at the boundary
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced run in memory until the run ends.
// All methods are no-ops on a nil recorder, so the untraced run executes
// the same load-generator code without recording anything.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

func (r *recorder) record(name string, id, parent uint64, start, end time.Time, count int) {
	if r == nil {
		return
	}
	s := span{Name: name, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
		ID: id, Parent: parent, Count: count}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records fn as one root span.
func (r *recorder) timed(name string, fn func() int) time.Duration {
	start := time.Now()
	count := fn()
	end := time.Now()
	r.record(name, r.newID(), 0, start, end, count)
	return end.Sub(start)
}

// named returns the recorded spans called name, in recording order.
func (r *recorder) named(name string) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// budgetLine is one span name's share of a traced run: how often the
// boundary was crossed, the time inside it, and the self time — the span's
// duration minus the part its direct children cover.
type budgetLine struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// budget sums the spans that started in [from, to), per name.
func (r *recorder) budget(from, to time.Time) []budgetLine {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[uint64]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	byName := make(map[string]*budgetLine)
	var lines []*budgetLine
	for _, s := range r.spans {
		if s.Start < from.Sub(r.epoch).Nanoseconds() || s.Start >= to.Sub(r.epoch).Nanoseconds() {
			continue
		}
		l := byName[s.Name]
		if l == nil {
			l = &budgetLine{Name: s.Name}
			byName[s.Name] = l
			lines = append(lines, l)
		}
		l.Calls++
		l.TotalMS += float64(s.dur()) / 1e6
		l.SelfMS += float64(max(s.dur()-children[s.ID], 0)) / 1e6
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Name < lines[j].Name })
	out := make([]budgetLine, len(lines))
	for i, l := range lines {
		out[i] = *l
	}
	return out
}

// traceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Run      string       `json:"run"`
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Budget   []budgetLine `json:"budget"` // the whole run, set-ups included
	Spans    []span       `json:"spans"`
}

func (r *recorder) write(path, run, workload string, seed int64) error {
	budget := r.budget(r.epoch, time.Now())
	r.mu.Lock()
	tf := traceFile{Run: run, Workload: workload, Seed: seed, Budget: budget, Spans: r.spans}
	data, err := json.Marshal(tf)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durations are the spans' lengths in multiples of unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// Span names of the traced assembly, one per boundary.
const (
	spanInsert   = "sirendb.insert_shard"
	spanSnapshot = "sirendb.snapshot"
	spanSeal     = "sirendb.seal"
	spanSync     = "sirendb.sync"
	spanOpen     = "sirendb.open"
	spanRefresh  = "catalog.refresh"
	spanHandler  = "server." // + endpoint: identify, jobs, stats, report
	spanClient   = "client." // + endpoint
)

// tracedStore is the receiver's view of the store with a span around every
// insert; it keeps the direct shard routing of the store it wraps.
type tracedStore struct {
	db  *sirendb.DB
	rec *recorder
}

func (s *tracedStore) StoreShards() int { return s.db.StoreShards() }

func (s *tracedStore) InsertBatch(ms []wire.Message) error {
	start := time.Now()
	err := s.db.InsertBatch(ms)
	s.rec.record(spanInsert, s.rec.newID(), 0, start, time.Now(), len(ms))
	return err
}

func (s *tracedStore) InsertShard(shard int, ms []wire.Message) error {
	start := time.Now()
	err := s.db.InsertShard(shard, ms)
	s.rec.record(spanInsert, s.rec.newID(), 0, start, time.Now(), len(ms))
	return err
}

// tracedCatalog runs refreshes as spans whose child is the snapshot capture
// of the source. Refreshes serialise, so one parent slot is enough.
type tracedCatalog struct {
	cat     *catalog.Catalog
	rec     *recorder
	parent  atomic.Uint64
	passes  []refreshPass
	statsMu sync.Mutex
}

// refreshPass is one refresh with the RefreshStats the catalog returned.
type refreshPass struct {
	at time.Time
	catalog.RefreshStats
}

func newTracedCatalog(rec *recorder, source catalog.Source, opts catalog.Options) *tracedCatalog {
	tc := &tracedCatalog{rec: rec}
	tc.cat = catalog.New(func() postprocess.SnapshotView {
		start := time.Now()
		snap := source()
		rec.record(spanSnapshot, rec.newID(), tc.parent.Load(), start, time.Now(), 0)
		return snap
	}, opts)
	return tc
}

func (tc *tracedCatalog) refresh() catalog.RefreshStats {
	id := tc.rec.newID()
	tc.parent.Store(id)
	start := time.Now()
	rs := tc.cat.Refresh()
	tc.rec.record(spanRefresh, id, 0, start, time.Now(), int(rs.NewRows))
	tc.statsMu.Lock()
	tc.passes = append(tc.passes, refreshPass{at: start, RefreshStats: rs})
	tc.statsMu.Unlock()
	return rs
}

func (tc *tracedCatalog) refreshPasses() []refreshPass {
	tc.statsMu.Lock()
	defer tc.statsMu.Unlock()
	return append([]refreshPass(nil), tc.passes...)
}

// spanHeader carries the client span's id to the handler's span.
const spanHeader = "X-Bench-Span"

type countingWriter struct {
	http.ResponseWriter
	bytes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return w.ResponseWriter.Write(p)
}

var endpointOf = map[string]string{
	"/api/v1/identify": "identify",
	"/api/v1/jobs":     "jobs",
	"/api/v1/stats":    "stats",
	"/api/v1/report":   "report",
}

// traceHandler wraps the query API with one span per request, counting the
// response bytes.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint, ok := endpointOf[r.URL.Path]
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		rec.record(spanHandler+endpoint, rec.newID(), parent, start, time.Now(), cw.bytes)
	})
}
