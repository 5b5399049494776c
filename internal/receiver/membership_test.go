package receiver

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"siren/internal/membership"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// jobMsg builds a message for one (job, host) pair — the admission unit.
func jobMsg(job, host string, pid int) wire.Message {
	return wire.Message{
		Header: wire.Header{
			JobID: job, StepID: "0", PID: pid, Hash: "beef", Host: host,
			Time: 1733900000, Layer: wire.LayerSelf, Type: wire.TypeMetadata, Seq: 0, Total: 1,
		},
		Content: []byte("EXE=/bin/x"),
	}
}

// testRoster builds an n-member roster without health addresses — the
// static deployment: nobody probes it, so ownership never moves.
func testRoster(t *testing.T, n int) *membership.Table {
	t.Helper()
	ms := make([]membership.Member, n)
	for i := range ms {
		ms[i] = membership.Member{ID: fmt.Sprintf("r%d", i), UDPAddr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	tbl, err := membership.NewTable(ms)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestMembershipAdmission broadcasts one mixed-job campaign to every member
// of a 3-member roster (all live) and checks the admission contract: each
// member admits exactly the keys it rendezvous-owns, rejects the rest, the
// union ingests every message exactly once — zero double-ingest — and, with
// nobody down, AcceptedFailover stays 0.
func TestMembershipAdmission(t *testing.T) {
	tbl := testRoster(t, 3)
	var msgs []wire.Message
	for j := 0; j < 24; j++ {
		for h := 0; h < 2; h++ {
			msgs = append(msgs, jobMsg(fmt.Sprintf("job-%d", j), fmt.Sprintf("nid%06d", h), 100+j))
		}
	}
	owner := func(m wire.Message) int {
		return tbl.RankedOwners([]byte(m.JobID), []byte(m.Host))[0]
	}
	wantOwned := make([]int, tbl.Len())
	for _, m := range msgs {
		wantOwned[owner(m)]++
	}
	for k := range wantOwned {
		if wantOwned[k] == 0 {
			t.Fatalf("test corpus leaves member %d without keys", k)
		}
	}

	total := 0
	for k := 0; k < tbl.Len(); k++ {
		db, _ := sirendb.Open("")
		view, err := membership.NewView(tbl, fmt.Sprintf("r%d", k))
		if err != nil {
			t.Fatal(err)
		}
		r := New(db, Options{View: view})
		src := wire.NewChanTransport(1 << 12)
		r.AttachChannel(src.C())
		for _, m := range msgs {
			if err := src.Send(wire.Encode(m)); err != nil {
				t.Fatal(err)
			}
		}
		src.Close()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		if got := db.Count(); got != wantOwned[k] {
			t.Errorf("member %d stored %d messages, want %d", k, got, wantOwned[k])
		}
		st := r.Stats().Snapshot()
		if st.Rejected != int64(len(msgs)-wantOwned[k]) {
			t.Errorf("member %d Rejected = %d, want %d", k, st.Rejected, len(msgs)-wantOwned[k])
		}
		if st.Received != int64(len(msgs)) {
			t.Errorf("member %d Received = %d, want %d", k, st.Received, len(msgs))
		}
		if st.AcceptedFailover != 0 {
			t.Errorf("member %d AcceptedFailover = %d with everyone live, want 0", k, st.AcceptedFailover)
		}
		for _, m := range db.All() {
			if owner(m) != k {
				t.Errorf("member %d ingested foreign message job=%s host=%s", k, m.JobID, m.Host)
			}
		}
		total += db.Count()
	}
	if total != len(msgs) {
		t.Errorf("union across members stored %d messages, want exactly %d", total, len(msgs))
	}
}

// TestMembershipFailoverAdmission marks one member down in a survivor's
// view and checks the reassignment contract: the survivor now admits its
// own keys PLUS the dead member's keys it is next-ranked for, counts
// exactly those as AcceptedFailover, and still rejects keys owned by the
// other survivor — the failed-over slice moves, everything else stays put.
func TestMembershipFailoverAdmission(t *testing.T) {
	tbl := testRoster(t, 3)
	const self, dead = 0, 1
	var msgs []wire.Message
	for j := 0; j < 48; j++ {
		msgs = append(msgs, jobMsg(fmt.Sprintf("job-%d", j), "nid000001", 100+j))
	}

	wantOwn, wantFailover := 0, 0
	for _, m := range msgs {
		ranked := tbl.RankedOwners([]byte(m.JobID), []byte(m.Host))
		switch {
		case ranked[0] == self:
			wantOwn++
		case ranked[0] == dead && ranked[1] == self:
			wantFailover++
		}
	}
	if wantFailover == 0 {
		t.Fatal("test corpus gives member 0 no failover keys; widen it")
	}

	db, _ := sirendb.Open("")
	view, err := membership.NewView(tbl, "r0")
	if err != nil {
		t.Fatal(err)
	}
	if _, changed := view.MarkDown("r1"); !changed {
		t.Fatal("MarkDown(r1) did not change state")
	}
	r := New(db, Options{View: view})
	src := wire.NewChanTransport(1 << 12)
	r.AttachChannel(src.C())
	for _, m := range msgs {
		if err := src.Send(wire.Encode(m)); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if got := db.Count(); got != wantOwn+wantFailover {
		t.Errorf("stored %d messages, want %d own + %d failover", got, wantOwn, wantFailover)
	}
	st := r.Stats().Snapshot()
	if st.AcceptedFailover != int64(wantFailover) {
		t.Errorf("AcceptedFailover = %d, want %d", st.AcceptedFailover, wantFailover)
	}
	if st.Rejected != int64(len(msgs)-wantOwn-wantFailover) {
		t.Errorf("Rejected = %d, want %d", st.Rejected, len(msgs)-wantOwn-wantFailover)
	}
}

// TestMembershipMalformedBypassesAdmission: datagrams whose header cannot be
// scanned are admitted (and counted Malformed by the parse stage) on every
// member, never Rejected — rejection is a statement that another member
// owns the datagram, which is unknowable without a header.
func TestMembershipMalformedBypassesAdmission(t *testing.T) {
	tbl := testRoster(t, 3)
	for k := 0; k < tbl.Len(); k++ {
		view, err := membership.NewView(tbl, fmt.Sprintf("r%d", k))
		if err != nil {
			t.Fatal(err)
		}
		db, _ := sirendb.Open("")
		r := New(db, Options{View: view})
		src := wire.NewChanTransport(64)
		r.AttachChannel(src.C())
		src.Send([]byte("garbage"))
		src.Send([]byte("SIREN1|also garbage"))
		src.Close()
		r.Close()
		if got := r.Stats().Malformed.Load(); got != 2 {
			t.Errorf("member %d Malformed = %d, want 2", k, got)
		}
		if got := r.Stats().Rejected.Load(); got != 0 {
			t.Errorf("member %d Rejected = %d, want 0 for unscannable headers", k, got)
		}
	}
}

// TestMembershipAdmissionSpreadsAcrossShards pins the independence of the
// admission rule (rendezvous scores) from writer/store shard routing (the
// low bits of wire.PartitionHash): if both reduced the same bits, a
// member's admitted traffic would be confined to a subset of its shards —
// with members == shards == 4, possibly to exactly one, re-serialising the
// whole sharded ingest path.
func TestMembershipAdmissionSpreadsAcrossShards(t *testing.T) {
	const members, shards = 4, 4
	view, err := membership.NewView(testRoster(t, members), "r1")
	if err != nil {
		t.Fatal(err)
	}
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	r := New(db, Options{View: view, Writers: shards})
	src := wire.NewChanTransport(1 << 12)
	r.AttachChannel(src.C())
	for j := 0; j < 400; j++ {
		m := jobMsg(fmt.Sprintf("job-%d", j), "nid000001", j)
		if err := src.Send(wire.Encode(m)); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Count() == 0 {
		t.Fatal("member r1 of 4 admitted nothing out of 400 jobs")
	}
	sn := db.Snapshot()
	for i := 0; i < sn.Shards(); i++ {
		if sn.ShardCursor(i).Len() == 0 {
			t.Errorf("store shard %d received no rows: admitted traffic is not spreading across shards", i)
		}
	}
}

// TestMembershipConfigValidation: an observer view (no self member) cannot
// admit anything correctly, so New panics at construction instead of
// silently double-ingesting or dropping a slice.
func TestMembershipConfigValidation(t *testing.T) {
	observer, err := membership.NewView(testRoster(t, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted an observer view")
		}
	}()
	db, _ := sirendb.Open("")
	New(db, Options{View: observer})
}

// TestHealthStallDetection drives the /healthz contract: healthy while
// datagrams flow, 503 once the source has been open past the stall window
// with nothing received, healthy again when traffic resumes.
func TestHealthStallDetection(t *testing.T) {
	db, _ := sirendb.Open("")
	r := New(db, Options{})

	// No source attached: healthy (nothing to stall).
	if ok, detail := r.Health(time.Millisecond); !ok {
		t.Fatalf("sourceless receiver unhealthy: %s", detail)
	}

	src := wire.NewChanTransport(64)
	r.AttachChannel(src.C())
	const stall = 80 * time.Millisecond

	if err := src.Send(wire.Encode(jobMsg("job-1", "nid000001", 1))); err != nil {
		t.Fatal(err)
	}
	// Wait for the forwarder goroutine to stamp the receive.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ok, detail := r.Health(stall); !ok {
		t.Fatalf("receiver unhealthy right after a datagram: %s", detail)
	}
	if ok, _ := r.Health(0); !ok {
		t.Fatal("stallAfter=0 must disable stall detection")
	}

	time.Sleep(2 * stall)
	ok, detail := r.Health(stall)
	if ok {
		t.Fatal("receiver still healthy after the stall window with zero traffic")
	}
	if detail == "" {
		t.Fatal("stalled verdict carries no detail")
	}

	// Traffic resumes: healthy again.
	if err := src.Send(wire.Encode(jobMsg("job-2", "nid000001", 2))); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for r.Stats().Received.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ok, detail := r.Health(stall); !ok {
		t.Fatalf("receiver unhealthy after traffic resumed: %s", detail)
	}

	src.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.Health(0); ok {
		t.Fatal("closed receiver reports healthy")
	}
}

// TestHealthHandler pins the HTTP shape: 200 + detail when healthy, 503
// when stalled — and that a 503 still satisfies ProbeLive (liveness is
// any-response).
func TestHealthHandler(t *testing.T) {
	db, _ := sirendb.Open("")
	r := New(db, Options{})
	src := wire.NewChanTransport(4)
	r.AttachChannel(src.C())
	defer func() { src.Close(); r.Close() }()

	const stall = 50 * time.Millisecond
	srv := httptest.NewServer(r.HealthHandler(stall))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh receiver /healthz = %d, want 200", resp.StatusCode)
	}

	time.Sleep(2 * stall)
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled receiver /healthz = %d, want 503", resp.StatusCode)
	}
	if err := membership.ProbeLive(srv.Listener.Addr().String(), time.Second); err != nil {
		t.Fatalf("ProbeLive against a 503 /healthz: %v (stalled must still be alive)", err)
	}
}
