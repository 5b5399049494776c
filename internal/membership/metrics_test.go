package membership

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"siren/internal/obs"
)

// TestProberInstrumented checks a probing round records RTT for successful
// probes and counts transport failures, via the round() path directly so the
// test doesn't race the ticker.
func TestProberInstrumented(t *testing.T) {
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer alive.Close()

	tbl, err := NewTable([]Member{
		{ID: "self", UDPAddr: "127.0.0.1:1"},
		{ID: "peer", UDPAddr: "127.0.0.1:2", HealthAddr: addrOf(t, alive)},
		{ID: "ghost", UDPAddr: "127.0.0.1:3", HealthAddr: "127.0.0.1:1"}, // nothing listens
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(tbl, "self")
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry("test")
	p := &Prober{View: v, Timeout: 250 * time.Millisecond, FailThreshold: 100}
	p.InstrumentWith(reg)
	p.fails = make([]int, tbl.Len())
	p.round()
	p.round()

	if rtt := reg.Histogram("siren_probe_rtt_ns", "").Snapshot(); rtt.Count != 2 {
		t.Fatalf("probe RTT count = %d, want 2 (one live peer, two rounds)", rtt.Count)
	}
	if fails := reg.Counter("siren_probe_failures_total", "").Value(); fails != 2 {
		t.Fatalf("probe failures = %d, want 2 (ghost per round)", fails)
	}
}

// TestRetryTransportBridge pins the exposition names of the sender bridge.
func TestRetryTransportBridge(t *testing.T) {
	reg := obs.NewRegistry("test")
	rt := &RetryTransport{T: &flakyTransport{failN: 2}, Retries: 3}
	rt.InstrumentWith(reg)
	if err := rt.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"siren_send_delivered_total 1",
		"siren_send_retries_total 2",
		"siren_send_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
