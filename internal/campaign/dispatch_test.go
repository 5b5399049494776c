package campaign

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"siren/internal/membership"
	"siren/internal/wire"
)

// fakeMemberTransport is one member's in-process ingest: it records
// delivered datagrams and can be "killed" so later sends error like a
// connected UDP socket picking up ECONNREFUSED.
type fakeMemberTransport struct {
	mu   sync.Mutex
	got  [][]byte
	dead bool
}

func (ft *fakeMemberTransport) Send(d []byte) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.dead {
		return errors.New("write: connection refused")
	}
	ft.got = append(ft.got, append([]byte(nil), d...))
	return nil
}

func (ft *fakeMemberTransport) Close() error { return nil }

func (ft *fakeMemberTransport) kill() {
	ft.mu.Lock()
	ft.dead = true
	ft.mu.Unlock()
}

func (ft *fakeMemberTransport) contents() map[string]int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	out := make(map[string]int, len(ft.got))
	for _, d := range ft.got {
		out[string(d)]++
	}
	return out
}

// dispatchWorld builds a 3-member roster with fake transports and, for the
// victim member, a health endpoint that can be shut down.
type dispatchWorld struct {
	tbl   *membership.Table
	view  *membership.View
	ft    *FailoverTransport
	fakes []*fakeMemberTransport
	// health servers by member index (nil = none)
	health []*httptest.Server
}

func newDispatchWorld(t *testing.T, opts FailoverOptions) *dispatchWorld {
	t.Helper()
	w := &dispatchWorld{fakes: make([]*fakeMemberTransport, 3), health: make([]*httptest.Server, 3)}
	members := make([]membership.Member, 3)
	for i := range members {
		w.fakes[i] = &fakeMemberTransport{}
		w.health[i] = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rw.WriteHeader(http.StatusOK)
		}))
		members[i] = membership.Member{
			ID:         fmt.Sprintf("r%d", i),
			UDPAddr:    fmt.Sprintf("fake:%d", i),
			HealthAddr: strings.TrimPrefix(w.health[i].URL, "http://"),
		}
	}
	tbl, err := membership.NewTable(members)
	if err != nil {
		t.Fatal(err)
	}
	view, err := membership.NewView(tbl, "")
	if err != nil {
		t.Fatal(err)
	}
	w.tbl, w.view = tbl, view
	opts.Dial = func(addr string) (wire.Transport, error) {
		var i int
		if _, err := fmt.Sscanf(addr, "fake:%d", &i); err != nil {
			return nil, err
		}
		return w.fakes[i], nil
	}
	ft, err := NewFailoverTransport(view, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.ft = ft
	t.Cleanup(func() {
		ft.Close()
		for _, h := range w.health {
			if h != nil {
				h.Close()
			}
		}
	})
	return w
}

func dg(job, host string, pid int) []byte {
	return wire.Encode(wire.Message{
		Header: wire.Header{
			JobID: job, StepID: "0", PID: pid, Hash: "beef", Host: host,
			Time: 1733900000, Layer: wire.LayerSelf, Type: wire.TypeMetadata, Seq: 0, Total: 1,
		},
		Content: []byte(fmt.Sprintf("EXE=/bin/x-%s-%s-%d", job, host, pid)),
	})
}

// key returns the JOBID and HOST values of a test datagram's scan, the
// values Send routes on.
func key(t *testing.T, d []byte) (job, host []byte) {
	t.Helper()
	f, err := wire.Scan(d)
	if err != nil {
		t.Fatalf("unscannable test datagram: %v", err)
	}
	return f.Value(d, wire.FieldJobID), f.Value(d, wire.FieldHost)
}

// TestDispatchRoutesToOwner: with everyone alive, each datagram lands on
// exactly its rendezvous owner.
func TestDispatchRoutesToOwner(t *testing.T) {
	w := newDispatchWorld(t, FailoverOptions{})
	var sent int
	for j := 0; j < 30; j++ {
		if err := w.ft.Send(dg(fmt.Sprintf("job-%d", j), "nid000001", 100+j)); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	total := 0
	for i, f := range w.fakes {
		for d := range f.contents() {
			job, host := key(t, []byte(d))
			if owner := w.tbl.RankedOwners(job, host)[0]; owner != i {
				t.Errorf("datagram for owner %d landed on member %d", owner, i)
			}
			total++
		}
	}
	if total != sent {
		t.Fatalf("delivered %d datagrams, want %d", total, sent)
	}
	st := w.ft.Stats()
	if st.Sent != uint64(sent) || st.Failovers != 0 || st.SendErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDispatchFailoverReplaysJournal kills one member mid-stream and checks
// the guarantee the e2e relies on: after failover, the union of surviving
// members holds every datagram ever delivered, with the dead member's
// journal replayed to the keys' new owners exactly once.
func TestDispatchFailoverReplaysJournal(t *testing.T) {
	w := newDispatchWorld(t, FailoverOptions{
		ProbeTimeout: 200 * time.Millisecond,
		ProbeRetries: 2,
		Backoff:      membership.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})

	// Pick a victim that owns at least one of the first-phase keys.
	var all [][]byte
	for j := 0; j < 40; j++ {
		all = append(all, dg(fmt.Sprintf("job-%d", j), "nid000001", 100+j))
	}
	victim := -1
	for _, d := range all {
		job, host := key(t, d)
		victim = w.tbl.RankedOwners(job, host)[0]
		break
	}

	// Phase 1: everyone alive.
	for _, d := range all[:20] {
		if err := w.ft.Send(d); err != nil {
			t.Fatal(err)
		}
	}
	preKill := len(w.fakes[victim].contents())
	if preKill == 0 {
		t.Fatal("victim owns none of phase 1; widen the corpus")
	}

	// Kill the victim: transport errors and health endpoint gone.
	w.fakes[victim].kill()
	w.health[victim].Close()

	// Phase 2: sends route around the corpse, triggering failover on the
	// first datagram the victim owns.
	for _, d := range all[20:] {
		if err := w.ft.Send(d); err != nil {
			t.Fatal(err)
		}
	}

	st := w.ft.Stats()
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1 (stats %+v)", st.Failovers, st)
	}
	if st.Replayed != uint64(preKill) {
		t.Fatalf("Replayed = %d, want the victim's %d journaled datagrams", st.Replayed, preKill)
	}
	if st.SendErrors != 0 {
		t.Fatalf("SendErrors = %d, want 0 (stats %+v)", st.SendErrors, st)
	}
	if !w.view.Down(victim) {
		t.Fatal("victim not marked down in the sender view")
	}

	// The union of survivors holds every datagram exactly once.
	union := make(map[string]int)
	for i, f := range w.fakes {
		if i == victim {
			continue
		}
		for d, n := range f.contents() {
			union[d] += n
		}
	}
	for _, d := range all {
		if union[string(d)] != 1 {
			t.Fatalf("datagram %q delivered %d times to survivors, want exactly 1", d[:40], union[string(d)])
		}
	}
	// And nothing but those datagrams.
	if len(union) != len(all) {
		t.Fatalf("survivors hold %d distinct datagrams, want %d", len(union), len(all))
	}

	// Post-failover routing agrees with the shrunken view.
	for i, f := range w.fakes {
		if i == victim {
			continue
		}
		for d := range f.contents() {
			job, host := key(t, []byte(d))
			if _, owner := w.view.Route(job, host); owner != i {
				t.Errorf("datagram owned by %d rests on member %d", owner, i)
			}
		}
	}
}

// TestDispatchFalseAlarm: a transient send error against a member whose
// health endpoint still answers must NOT evict it.
func TestDispatchFalseAlarm(t *testing.T) {
	w := newDispatchWorld(t, FailoverOptions{
		ProbeTimeout: 200 * time.Millisecond,
		ProbeRetries: 2,
		Backoff:      membership.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	d := dg("job-1", "nid000001", 1)
	job, host := key(t, d)
	owner := w.tbl.RankedOwners(job, host)[0]

	// One-shot failure: error once, then deliver (health stays up).
	failed := false
	inner := w.fakes[owner]
	w.ft.members[owner].t = transportFunc(func(dd []byte) error {
		if !failed {
			failed = true
			return errors.New("sendto: no buffer space available")
		}
		return inner.Send(dd)
	})

	if err := w.ft.Send(d); err != nil {
		t.Fatal(err)
	}
	st := w.ft.Stats()
	if st.FalseAlarm != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want FalseAlarm=1 Failovers=0", st)
	}
	if w.view.Down(owner) {
		t.Fatal("live member evicted on a transient send error")
	}
	if inner.contents()[string(d)] != 1 {
		t.Fatal("datagram not delivered after the false alarm")
	}
}

// transportFunc adapts a function to wire.Transport.
type transportFunc func([]byte) error

func (f transportFunc) Send(d []byte) error { return f(d) }
func (f transportFunc) Close() error        { return nil }

// TestDispatchAllDead: every member dead → Send errors out and counts it.
func TestDispatchAllDead(t *testing.T) {
	w := newDispatchWorld(t, FailoverOptions{
		ProbeTimeout:    100 * time.Millisecond,
		ProbeRetries:    1,
		MaxSendAttempts: 5,
		Backoff:         membership.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	for i := range w.fakes {
		w.fakes[i].kill()
		w.health[i].Close()
	}
	if err := w.ft.Send(dg("job-1", "nid000001", 1)); err == nil {
		t.Fatal("Send succeeded with every member dead")
	}
	if st := w.ft.Stats(); st.SendErrors == 0 {
		t.Fatalf("stats = %+v, want SendErrors > 0", st)
	}
}

// TestDispatchConcurrentSendersOneDeath: many goroutines sending while one
// member dies — exactly one failover, no datagram lost, none duplicated to
// survivors. Run with -race.
func TestDispatchConcurrentSendersOneDeath(t *testing.T) {
	w := newDispatchWorld(t, FailoverOptions{
		ProbeTimeout: 200 * time.Millisecond,
		ProbeRetries: 2,
		Backoff:      membership.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})

	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	var once sync.Once
	var victim int
	// Find some member to kill partway through.
	d0 := dg("job-0", "nid000001", 0)
	job, host := key(t, d0)
	victim = w.tbl.RankedOwners(job, host)[0]

	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g == 0 && i == perG/2 {
					once.Do(func() {
						w.fakes[victim].kill()
						w.health[victim].Close()
					})
				}
				if err := w.ft.Send(dg(fmt.Sprintf("job-%d-%d", g, i), "nid000001", i)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := w.ft.Stats()
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want exactly 1 (stats %+v)", st.Failovers, st)
	}
	if st.SendErrors != 0 {
		t.Fatalf("SendErrors = %d (stats %+v)", st.SendErrors, st)
	}

	// Survivors hold every sent datagram at most... exactly once each for
	// all delivered+journal-replayed traffic; the victim's pre-kill copies
	// overlap by design (they're what dedup removes at merge time).
	union := make(map[string]int)
	for i, f := range w.fakes {
		if i == victim {
			continue
		}
		for d, n := range f.contents() {
			union[d] += n
		}
	}
	for d, n := range union {
		if n != 1 {
			t.Fatalf("datagram %q delivered %d times to survivors", d[:40], n)
		}
	}
	if len(union) != goroutines*perG {
		t.Fatalf("survivors hold %d distinct datagrams, want %d", len(union), goroutines*perG)
	}
}
