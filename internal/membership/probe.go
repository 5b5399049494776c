package membership

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"siren/internal/obs"
)

// ProbeLive checks whether the process behind healthAddr is alive. Liveness
// is deliberately weaker than health: ANY http response — including a 503
// from a stalled-ingest /healthz — proves the process exists and its WAL is
// still growing toward the final merge, so traffic routed to it is not lost.
// Only a transport-level failure (refused, reset, timeout) is death. A probe
// against an empty healthAddr succeeds: unprobable members are assumed live.
func ProbeLive(healthAddr string, timeout time.Duration) error {
	if healthAddr == "" {
		return nil
	}
	c := &http.Client{Timeout: timeout}
	resp, err := c.Get("http://" + healthAddr + "/healthz")
	if err != nil {
		return fmt.Errorf("membership: probe %s: %w", healthAddr, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

// ReportDown tells the member behind healthAddr that the member named
// deadID is dead, via POST /membership/down?id=deadID. The receiver
// confirm-probes before honoring the report (see receiver admission in
// DESIGN.md §11), so a 409 response means it still sees the member alive
// and refused; that is returned as an error. Senders call this on every
// surviving member BEFORE replaying a dead member's traffic so the new
// owners admit the failed-over keys immediately.
func ReportDown(healthAddr, deadID string, timeout time.Duration) error {
	if healthAddr == "" {
		return nil
	}
	c := &http.Client{Timeout: timeout}
	resp, err := c.Post("http://"+healthAddr+"/membership/down?id="+url.QueryEscape(deadID), "text/plain", nil)
	if err != nil {
		return fmt.Errorf("membership: report down to %s: %w", healthAddr, err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if cerr := resp.Body.Close(); cerr != nil {
		return cerr
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("membership: report down to %s: %s: %s", healthAddr, resp.Status, body)
	}
	return nil
}

// Prober periodically probes every roster member's health address and marks
// members down in a View after FailThreshold consecutive probe failures.
// Receivers run one so that even traffic from senders that never probe
// (plain broadcast campaigns) is admitted after a death; failover-dispatch
// senders learn of deaths faster through their own send-path probes.
type Prober struct {
	// View is marked as deaths are confirmed. The prober never probes the
	// view's own member.
	View *View
	// Interval between probe rounds (default 1s).
	Interval time.Duration
	// Timeout of each individual probe (default 500ms).
	Timeout time.Duration
	// FailThreshold is the number of consecutive failures that constitutes
	// death (default 2 — one failed probe can be a blip).
	FailThreshold int
	// OnDown, if set, is called once per member transitioned to down, from
	// the prober goroutine.
	OnDown func(idx int, m Member)

	wg    sync.WaitGroup
	stop  chan struct{}
	fails []int

	// obs instruments, set by InstrumentWith (or by Start, privately).
	rttNS      *obs.Histogram
	probeFails *obs.Counter
}

// Start launches the probe loop. Stop joins it.
func (p *Prober) Start() {
	if p.Interval <= 0 {
		p.Interval = time.Second
	}
	if p.Timeout <= 0 {
		p.Timeout = 500 * time.Millisecond
	}
	if p.FailThreshold <= 0 {
		p.FailThreshold = 2
	}
	if p.rttNS == nil {
		p.InstrumentWith(obs.NewRegistry("siren-prober"))
	}
	p.stop = make(chan struct{})
	p.fails = make([]int, p.View.Table().Len())
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.Interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.round()
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it to exit.
func (p *Prober) Stop() {
	if p.stop == nil {
		return
	}
	close(p.stop)
	p.wg.Wait()
	p.stop = nil
}

// round probes every live non-self member once. Runs only on the prober
// goroutine, so p.fails needs no locking.
func (p *Prober) round() {
	t := p.View.Table()
	for i := 0; i < t.Len(); i++ {
		if i == p.View.SelfIndex() || p.View.Down(i) {
			continue
		}
		m := t.Member(i)
		if m.HealthAddr == "" {
			continue
		}
		start := time.Now()
		if err := ProbeLive(m.HealthAddr, p.Timeout); err != nil {
			p.probeFails.Inc()
			p.fails[i]++
			if p.fails[i] >= p.FailThreshold && p.View.MarkDownIndex(i) && p.OnDown != nil {
				p.OnDown(i, m)
			}
			continue
		}
		p.rttNS.Since(start)
		p.fails[i] = 0
	}
}
