package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/server"
)

// The load generator is open loop everywhere: datagrams and identify
// requests are due on a schedule fixed before the run, a slow system
// receives the same load as a fast one, and a request's latency counts from
// its due time, so a stall is charged to every request it delayed.

const sendTick = 10 * time.Millisecond

// apiClient is the generator's HTTP side: at most two keep-alive
// connections to the query API.
type apiClient struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newAPIClient(addr string, rec *recorder) *apiClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}
	return &apiClient{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, rec: rec}
}

func (a *apiClient) close() { a.hc.CloseIdleConnections() }

// do issues one request as a client span and returns the status and body.
func (a *apiClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	id := a.rec.newID()
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // only read
	a.rec.record(spanClient+endpointOf[path], id, 0, start, time.Now(), len(data))
	return resp.StatusCode, data, err
}

func (a *apiClient) getJSON(path string, v any) error {
	status, data, err := a.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, data)
	}
	return json.Unmarshal(data, v)
}

// identify asks for q's ranking and reports whether the answer is right:
// an exact or variant query must be led by an executable of the drawn
// family, an unknown must get no row at all.
func (a *apiClient) identify(q query) error {
	body, err := json.Marshal(server.IdentifyRequest{
		ModulesH: q.digests.Modules, CompilersH: q.digests.Compilers, ObjectsH: q.digests.Objects,
		FileH: q.digests.File, StringsH: q.digests.Strings, SymbolsH: q.digests.Symbols,
	})
	if err != nil {
		return err
	}
	status, data, err := a.do(http.MethodPost, "/api/v1/identify", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("identify: status %d: %s", status, data)
	}
	var resp server.IdentifyResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("identify: %w", err)
	}
	switch {
	case q.kind == kindUnknown && len(resp.Rows) > 0:
		return fmt.Errorf("identify: unknown query answered with %s", resp.Rows[0].Exe)
	case q.kind != kindUnknown && len(resp.Rows) == 0:
		return fmt.Errorf("identify: %s query of family %d got no row", q.kind, q.family)
	case q.kind != kindUnknown && exeFamily(resp.Rows[0].Exe) != q.family:
		return fmt.Errorf("identify: %s query of family %d led by %s", q.kind, q.family, resp.Rows[0].Exe)
	}
	return nil
}

// failureLog keeps a count and the first few messages.
type failureLog struct {
	n    int
	msgs []string
}

func (f *failureLog) add(err error) {
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

// sendResult is what the datagram sender observed.
type sendResult struct {
	start, end time.Time
	lateMS     []float64 // per tick: how long after its due time it began
	sendErrors int
}

// sendTraffic offers tr at rate datagrams per second: it wakes every 10 ms
// and sends that tick's quota back to back. A generator that was held up
// catches up at no more than twice the rate — the whole backlog at once
// would be a burst no collector fleet produces, and would measure the
// socket buffer instead of the receiver. sentAt[j] receives the time job
// j's last datagram left.
func sendTraffic(addr string, tr *traffic, rate int, sentAt []atomic.Int64) (sendResult, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return sendResult{}, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return sendResult{}, err
	}
	defer func() { _ = conn.Close() }()
	perTick := max(rate/int(time.Second/sendTick), 1)
	res := sendResult{start: time.Now()}
	var earliest time.Time // of the next tick, while catching up
	for i, tick := 0, 0; i < len(tr.dgrams); tick++ {
		due := res.start.Add(time.Duration(tick) * sendTick)
		if earliest.After(due) {
			time.Sleep(time.Until(earliest))
		} else {
			time.Sleep(time.Until(due))
		}
		began := time.Now()
		earliest = began.Add(sendTick / 2)
		res.lateMS = append(res.lateMS, max(float64(began.Sub(due))/1e6, 0))
		for end := min(i+perTick, len(tr.dgrams)); i < end; i++ {
			if _, err := conn.Write(tr.dgrams[i]); err != nil {
				res.sendErrors++
			}
			if j := tr.jobOf[i]; tr.last[j] == i {
				sentAt[j].Store(time.Now().UnixNano())
			}
		}
	}
	res.end = time.Now()
	return res, nil
}

const (
	pollInterval = 50 * time.Millisecond // the lag poller reads /api/v1/stats at 20 Hz
	drainLimit   = 10 * time.Second      // a job not queryable this long after the last send is incomplete
)

// lagPoller measures ingest-to-queryable lag: for each offered job, the
// first poll at which a served generation reports all of its datagrams,
// minus the send time of its last one.
type lagPoller struct {
	api     *apiClient
	tr      *traffic
	jobIdx  map[string]int
	sentAt  []atomic.Int64
	lagS    []float64
	done    []bool
	pending int
	stored  int // Σ messages over the last /api/v1/jobs answer, pre-loaded jobs included
	gen     uint64
	haveGen bool
	fails   failureLog
}

func newLagPoller(api *apiClient, tr *traffic) *lagPoller {
	p := &lagPoller{api: api, tr: tr, jobIdx: make(map[string]int, len(tr.jobs)),
		sentAt: make([]atomic.Int64, len(tr.jobs)), done: make([]bool, len(tr.jobs)), pending: len(tr.jobs)}
	for i, j := range tr.jobs {
		p.jobIdx[j] = i
	}
	return p
}

// poll reads the served generation and, when it moved, the job listing.
func (p *lagPoller) poll() {
	var st server.StatsResponse
	if err := p.api.getJSON("/api/v1/stats", &st); err != nil {
		p.fails.add(err)
		return
	}
	if p.haveGen && st.Generation == p.gen {
		return
	}
	var jobs server.JobsResponse
	if err := p.api.getJSON("/api/v1/jobs", &jobs); err != nil {
		p.fails.add(err)
		return
	}
	now := time.Now().UnixNano()
	p.gen, p.haveGen = jobs.Generation, true
	p.stored = 0
	for _, j := range jobs.Jobs {
		p.stored += j.Messages
		i, ok := p.jobIdx[j.JobID]
		if !ok || p.done[i] || j.Messages != p.tr.perJob[i] {
			continue
		}
		if sent := p.sentAt[i].Load(); sent != 0 {
			p.done[i] = true
			p.pending--
			p.lagS = append(p.lagS, float64(now-sent)/1e9)
		}
	}
}

// run polls until sending has ended and every job is queryable, or until
// drainLimit after the last send. sendEnd is closed when the sender returns.
func (p *lagPoller) run(sendEnd <-chan struct{}) {
	var deadline time.Time
	for {
		p.poll()
		select {
		case <-sendEnd:
			if deadline.IsZero() {
				deadline = time.Now().Add(drainLimit)
			}
			if p.pending == 0 || time.Now().After(deadline) {
				return
			}
		default:
		}
		time.Sleep(pollInterval)
	}
}

// identifyResult is what the identify clients observed.
type identifyResult struct {
	attempted int
	latMS     []float64 // from due time
	lateMS    []float64 // how long after its due time a request was sent
	fails     failureLog
}

const identifyLimit = time.Second // slower than this counts as failed

// runIdentify issues n identify requests, request i due at start + i/rate,
// from two workers that each take the next due request.
func runIdentify(api *apiClient, pool []query, rate float64, n int) *identifyResult {
	res := &identifyResult{attempted: n}
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late := max(time.Since(due), 0)
				err := api.identify(pool[i%len(pool)])
				lat := time.Since(due)
				if err == nil && lat > identifyLimit {
					err = fmt.Errorf("identify: answered after %s", lat)
				}
				mu.Lock()
				res.lateMS = append(res.lateMS, float64(late)/1e6)
				if err != nil {
					// A failed request misses every latency limit.
					res.fails.add(err)
					lat = max(lat, identifyLimit)
				}
				res.latMS = append(res.latMS, float64(lat)/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// warmUp issues n identify requests one after the other, from the end of
// the pool, and fails on the first wrong answer.
func warmUp(api *apiClient, pool []query, n int) error {
	for i := 0; i < n; i++ {
		if err := api.identify(pool[len(pool)-1-i%len(pool)]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}
