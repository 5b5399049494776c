package membership

import (
	"fmt"
	"testing"
	"time"

	"siren/internal/wire"
	"siren/internal/xxhash"
)

func testTable(t *testing.T, ids ...string) *Table {
	t.Helper()
	ms := make([]Member, len(ids))
	for i, id := range ids {
		ms[i] = Member{ID: id, UDPAddr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	tbl, err := NewTable(ms)
	if err != nil {
		t.Fatalf("NewTable(%v): %v", ids, err)
	}
	return tbl
}

func TestParseRoster(t *testing.T) {
	tbl, err := ParseRoster("r0=127.0.0.1:9000@127.0.0.1:8000, r1=127.0.0.1:9001 ,r2=127.0.0.1:9002@127.0.0.1:8002")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
	want := []Member{
		{ID: "r0", UDPAddr: "127.0.0.1:9000", HealthAddr: "127.0.0.1:8000"},
		{ID: "r1", UDPAddr: "127.0.0.1:9001"},
		{ID: "r2", UDPAddr: "127.0.0.1:9002", HealthAddr: "127.0.0.1:8002"},
	}
	for i, w := range want {
		if got := tbl.Member(i); got != w {
			t.Errorf("Member(%d) = %+v, want %+v", i, got, w)
		}
	}
	// String round-trips through ParseRoster.
	again, err := ParseRoster(tbl.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", tbl.String(), err)
	}
	if again.String() != tbl.String() {
		t.Errorf("round-trip: %q != %q", again.String(), tbl.String())
	}
}

func TestParseRosterErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"   ",
		"r0",                     // no '='
		"r0=",                    // empty addr
		"=127.0.0.1:9000",        // empty id
		"r0=a:1,r0=a:2",          // duplicate id
		"bad id=127.0.0.1:9000",  // separator in id
		"r0=a:1,,r0@x=127.0.0.1", // '@' in id parses as addr soup -> still invalid
	} {
		if _, err := ParseRoster(spec); err == nil {
			t.Errorf("ParseRoster(%q): want error, got nil", spec)
		}
	}
}

// Two members sharing one UDP address cannot both bind it: one process would
// fail to start while senders kept routing its keys to the other, which
// rejects them — and with no health address nobody would ever mark the
// missing member down, so its slice would be lost silently.
func TestRosterRejectsDuplicateUDPAddr(t *testing.T) {
	if _, err := NewTable([]Member{
		{ID: "r0", UDPAddr: "127.0.0.1:9000"},
		{ID: "r1", UDPAddr: "127.0.0.1:9000"},
	}); err == nil {
		t.Error("NewTable accepted two members on one UDP address")
	}
	if _, err := ParseRoster("r0=127.0.0.1:9000,r1=127.0.0.1:9001,r2=127.0.0.1:9000"); err == nil {
		t.Error("ParseRoster accepted two members on one UDP address")
	}
}

// The failover order of a key must be a pure function of member IDs and the
// key — independent of roster order — or differently-configured processes
// would route the same datagram to different members.
func TestRankedOwnersIgnoresRosterOrder(t *testing.T) {
	a := testTable(t, "r0", "r1", "r2", "r3")
	b := testTable(t, "r3", "r1", "r0", "r2")
	for k := 0; k < 200; k++ {
		job := []byte(fmt.Sprintf("job-%d", k))
		host := []byte(fmt.Sprintf("node%03d", k%17))
		ra, rb := a.RankedOwners(job, host), b.RankedOwners(job, host)
		for i := range ra {
			if a.Member(ra[i]).ID != b.Member(rb[i]).ID {
				t.Fatalf("key %d rank %d: %s (roster A) != %s (roster B)",
					k, i, a.Member(ra[i]).ID, b.Member(rb[i]).ID)
			}
		}
	}
}

func TestScoreMatchesSpec(t *testing.T) {
	job, host := []byte("jobid-1"), []byte("node001")
	want := xxhash.Sum64Seed([]byte("r1"), wire.PartitionHash(job, host))
	if got := Score("r1", job, host); got != want {
		t.Fatalf("Score = %#x, want %#x", got, want)
	}
}

func TestRouteFailover(t *testing.T) {
	tbl := testTable(t, "r0", "r1", "r2")
	v, err := NewView(tbl, "")
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ job, host string }
	owners := map[key]int{}
	var victims []key
	for k := 0; k < 300; k++ {
		kk := key{fmt.Sprintf("job-%d", k), fmt.Sprintf("node%03d", k%23)}
		rank0, owner := v.Route([]byte(kk.job), []byte(kk.host))
		if rank0 != owner {
			t.Fatalf("all-live view: rank0 %d != owner %d", rank0, owner)
		}
		ranked := tbl.RankedOwners([]byte(kk.job), []byte(kk.host))
		if ranked[0] != owner {
			t.Fatalf("owner %d != RankedOwners[0] %d", owner, ranked[0])
		}
		owners[kk] = owner
		if owner == 1 {
			victims = append(victims, kk)
		}
	}
	// Sanity: rendezvous spreads keys over all three members.
	seen := map[int]int{}
	for _, o := range owners {
		seen[o]++
	}
	for i := 0; i < 3; i++ {
		if seen[i] == 0 {
			t.Fatalf("member %d owns zero of 300 keys: %v", i, seen)
		}
	}
	if len(victims) == 0 {
		t.Fatal("no keys owned by r1; widen the key set")
	}

	if i, changed := v.MarkDown("r1"); i != 1 || !changed {
		t.Fatalf("MarkDown(r1) = (%d, %v)", i, changed)
	}
	if _, changed := v.MarkDown("r1"); changed {
		t.Fatal("second MarkDown(r1) reported a change")
	}
	if v.LiveCount() != 2 {
		t.Fatalf("LiveCount = %d, want 2", v.LiveCount())
	}

	for kk, before := range owners {
		rank0, owner := v.Route([]byte(kk.job), []byte(kk.host))
		if rank0 != before {
			t.Fatalf("rank0 changed after death: %d -> %d", before, rank0)
		}
		if before != 1 {
			// The rendezvous property: survivors' keys never move.
			if owner != before {
				t.Fatalf("key %v owned by live member %d moved to %d", kk, before, owner)
			}
			continue
		}
		// Dead member's keys fall to the next-ranked live member.
		ranked := tbl.RankedOwners([]byte(kk.job), []byte(kk.host))
		if ranked[0] != 1 {
			t.Fatalf("victim key %v not rank-0 owned by r1", kk)
		}
		if owner != ranked[1] {
			t.Fatalf("key %v fell to %d, want next-ranked %d", kk, owner, ranked[1])
		}
	}

	// Everyone down: no owner.
	v.MarkDownIndex(0)
	v.MarkDownIndex(2)
	if _, owner := v.Route([]byte("j"), []byte("h")); owner != -1 {
		t.Fatalf("owner = %d with all members down, want -1", owner)
	}
}

func TestViewSelf(t *testing.T) {
	tbl := testTable(t, "r0", "r1")
	if _, err := NewView(tbl, "nope"); err == nil {
		t.Fatal("NewView with unknown self: want error")
	}
	v, err := NewView(tbl, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if v.SelfIndex() != 1 {
		t.Fatalf("SelfIndex = %d, want 1", v.SelfIndex())
	}
	if _, changed := v.MarkDown("r1"); changed {
		t.Fatal("view marked its own member down")
	}
	if v.MarkDownIndex(1) {
		t.Fatal("MarkDownIndex marked self")
	}
	if v.Down(1) {
		t.Fatal("self is down")
	}
}

func TestBackoffDelays(t *testing.T) {
	var zero Backoff
	if d := zero.Delay(3); d != 0 {
		t.Fatalf("zero Backoff.Delay = %v, want 0", d)
	}
	b := Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if d := b.Delay(i); d != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, d, w*time.Millisecond)
		}
	}
	j := Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := j.Delay(1) // nominal 20ms, jittered to [10ms, 30ms]
		if d < 10*time.Millisecond || d > 30*time.Millisecond {
			t.Fatalf("jittered Delay(1) = %v outside [10ms, 30ms]", d)
		}
	}
	// Default cap (16×Base) applies when Max is unset.
	uncapped := Backoff{Base: time.Millisecond}
	if d := uncapped.Delay(10); d != 16*time.Millisecond {
		t.Fatalf("default-cap Delay(10) = %v, want 16ms", d)
	}
}

func TestBackoffSleepStop(t *testing.T) {
	b := Backoff{Base: time.Minute}
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if b.Sleep(0, stop) {
		t.Fatal("Sleep returned true despite closed stop")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Sleep did not return promptly on stop")
	}
}
