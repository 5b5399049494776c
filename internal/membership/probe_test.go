package membership

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"siren/internal/wire"
)

func addrOf(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestProbeLive(t *testing.T) {
	// Liveness != health: a 503 (stalled ingest) still proves the process
	// exists, so it must probe live.
	for _, code := range []int{http.StatusOK, http.StatusServiceUnavailable} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
		}))
		if err := ProbeLive(addrOf(t, srv), time.Second); err != nil {
			t.Errorf("ProbeLive(status %d): %v", code, err)
		}
		srv.Close()
	}
	// A closed server is a transport error: dead.
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := addrOf(t, srv)
	srv.Close()
	if err := ProbeLive(addr, 500*time.Millisecond); err == nil {
		t.Error("ProbeLive against a closed server: want error")
	}
	// Unprobable members are assumed live.
	if err := ProbeLive("", time.Nanosecond); err != nil {
		t.Errorf("ProbeLive(\"\"): %v", err)
	}
}

func TestReportDown(t *testing.T) {
	var gotID atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/membership/down" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		gotID.Store(r.URL.Query().Get("id"))
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	if err := ReportDown(addrOf(t, srv), "r2", time.Second); err != nil {
		t.Fatal(err)
	}
	if id, _ := gotID.Load().(string); id != "r2" {
		t.Fatalf("reported id = %q, want r2", id)
	}

	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "still alive", http.StatusConflict)
	}))
	defer refuse.Close()
	if err := ReportDown(addrOf(t, refuse), "r2", time.Second); err == nil {
		t.Fatal("refused report: want error")
	}
	if err := ReportDown("", "r2", time.Nanosecond); err != nil {
		t.Fatalf("ReportDown to unprobable member: %v", err)
	}
}

func TestProberMarksDownAfterThreshold(t *testing.T) {
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer alive.Close()
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	tbl, err := NewTable([]Member{
		{ID: "self", UDPAddr: "127.0.0.1:1"},
		{ID: "peer", UDPAddr: "127.0.0.1:2", HealthAddr: addrOf(t, alive)},
		{ID: "victim", UDPAddr: "127.0.0.1:3", HealthAddr: addrOf(t, dying)},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(tbl, "self")
	if err != nil {
		t.Fatal(err)
	}

	downCh := make(chan int, 4)
	p := &Prober{
		View:          v,
		Interval:      10 * time.Millisecond,
		Timeout:       250 * time.Millisecond,
		FailThreshold: 2,
		OnDown:        func(idx int, m Member) { downCh <- idx },
	}
	p.Start()
	defer p.Stop()

	dying.Close()
	select {
	case idx := <-downCh:
		if idx != 2 {
			t.Fatalf("OnDown idx = %d, want 2 (victim)", idx)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("prober never marked the dead member down")
	}
	if !v.Down(2) {
		t.Fatal("victim not marked down in the view")
	}
	if v.Down(1) {
		t.Fatal("live peer was marked down")
	}

	// OnDown fires exactly once per member.
	time.Sleep(50 * time.Millisecond)
	select {
	case idx := <-downCh:
		t.Fatalf("second OnDown(%d) for an already-down member", idx)
	default:
	}
}

// flakyTransport fails the first failN sends, then succeeds.
type flakyTransport struct {
	failN int32
	sent  atomic.Uint64
}

func (f *flakyTransport) Send(b []byte) error {
	if atomic.AddInt32(&f.failN, -1) >= 0 {
		return errors.New("sendto: no buffer space available")
	}
	f.sent.Add(1)
	return nil
}

func (f *flakyTransport) Close() error { return nil }

var _ wire.Transport = (*flakyTransport)(nil)
var _ wire.Transport = (*RetryTransport)(nil)

func TestRetryTransportRecovers(t *testing.T) {
	f := &flakyTransport{failN: 2}
	rt := NewRetryTransport(f, 3, Backoff{}, nil)
	if err := rt.Send([]byte("x")); err != nil {
		t.Fatalf("Send with 3 retries over 2 failures: %v", err)
	}
	s := rt.Stats()
	if s.Sent != 1 || s.Retries != 2 || s.SendErrors != 0 {
		t.Fatalf("stats = %+v, want Sent=1 Retries=2 SendErrors=0", s)
	}
	if f.sent.Load() != 1 {
		t.Fatalf("underlying transport delivered %d, want 1", f.sent.Load())
	}
}

func TestRetryTransportExhausted(t *testing.T) {
	f := &flakyTransport{failN: 100}
	rt := NewRetryTransport(f, 2, Backoff{}, nil)
	if err := rt.Send([]byte("x")); err == nil {
		t.Fatal("Send: want error after exhausting retries")
	}
	s := rt.Stats()
	if s.Sent != 0 || s.Retries != 2 || s.SendErrors != 1 {
		t.Fatalf("stats = %+v, want Sent=0 Retries=2 SendErrors=1", s)
	}
	// Retries=0 fails immediately but still counts the loss.
	rt0 := NewRetryTransport(&flakyTransport{failN: 100}, 0, Backoff{}, nil)
	if err := rt0.Send([]byte("x")); err == nil {
		t.Fatal("Retries=0 Send: want error")
	}
	if s := rt0.Stats(); s.SendErrors != 1 || s.Retries != 0 {
		t.Fatalf("Retries=0 stats = %+v", s)
	}
}
