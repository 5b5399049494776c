// Kill-one-of-N failover end-to-end test (DESIGN.md §11): one campaign sent
// simultaneously to a never-killed baseline receiver and, through a
// membership-routed FailoverTransport, to three member receivers — one of
// which is SIGKILLed mid-stream. The sender must confirm the death, report
// it to the survivors, re-route, and replay the victim's journal; the
// survivors must admit the reassigned keys; and analysing the three member
// WALs — including the victim's partial, crash-recovered one — must produce
// a report byte-identical to the baseline's, with the consolidated message
// count equal to the baseline row count (the rows the overlap window stored
// twice count once) and no conflicting chunk.
package siren_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"siren/internal/campaign"
	"siren/internal/membership"
	"siren/internal/postprocess"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// freeAddr reserves a loopback port by binding, recording, and releasing it.
// Membership rosters name every member's address up front, so member ports
// must exist before the processes start; the tiny release-to-bind window is
// a non-issue on loopback.
func freeAddr(t *testing.T, network string) string {
	t.Helper()
	switch network {
	case "udp":
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := pc.LocalAddr().String()
		pc.Close()
		return addr
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	t.Fatalf("freeAddr: unknown network %q", network)
	return ""
}

// teeTransport duplicates the campaign stream to the baseline receiver and
// the failover dispatch, and fires kill() inline once killAt datagrams have
// been sent — guaranteeing the death lands mid-stream, with journaled
// traffic behind it and live traffic ahead of it.
type teeTransport struct {
	baseline wire.Transport
	failover wire.Transport
	killAt   int
	kill     func()

	mu   sync.Mutex
	sent int
}

func (tt *teeTransport) Send(d []byte) error {
	tt.mu.Lock()
	tt.sent++
	n := tt.sent
	tt.mu.Unlock()
	if n == tt.killAt {
		tt.kill()
	}
	if err := tt.baseline.Send(d); err != nil {
		return err
	}
	return tt.failover.Send(d)
}

func (tt *teeTransport) Close() error {
	err := tt.baseline.Close()
	if cerr := tt.failover.Close(); err == nil {
		err = cerr
	}
	return err
}

func TestKillOneOfNFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, tool := range []string{"siren-receiver", "siren-analyze"} {
		runCmd(t, repo, "go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
	}
	receiverBin := filepath.Join(bin, "siren-receiver")
	analyzeBin := filepath.Join(bin, "siren-analyze")

	work := t.TempDir()
	const members = 3
	const victim = 1

	// Roster: every member's UDP and health port reserved up front.
	udpAddrs := make([]string, members)
	healthAddrs := make([]string, members)
	entries := make([]string, members)
	for k := 0; k < members; k++ {
		udpAddrs[k] = freeAddr(t, "udp")
		healthAddrs[k] = freeAddr(t, "tcp")
		entries[k] = fmt.Sprintf("r%d=%s@%s", k, udpAddrs[k], healthAddrs[k])
	}
	roster := strings.Join(entries, ",")

	baselineWAL := filepath.Join(work, "baseline.wal")
	baseline := startReceiver(t, receiverBin,
		"-db", baselineWAL, "-stats-interval", "0", "-rcvbuf", "8388608", "-addr", "127.0.0.1:0")

	memberWALs := make([]string, members)
	procs := make([]*rcvProc, members)
	for k := 0; k < members; k++ {
		memberWALs[k] = filepath.Join(work, fmt.Sprintf("member-%d.wal", k))
		// -addr and -metrics-addr default from the roster entry. The
		// background prober is off: survivors must learn of the death from
		// the sender's confirm-probed /membership/down report alone.
		procs[k] = startReceiver(t, receiverBin,
			"-db", memberWALs[k], "-member-id", fmt.Sprintf("r%d", k), "-roster", roster,
			"-stats-interval", "0", "-rcvbuf", "8388608", "-probe-interval", "0s")
		if procs[k].addr != udpAddrs[k] {
			t.Fatalf("member %d bound %s, want its roster address %s", k, procs[k].addr, udpAddrs[k])
		}
	}

	table, err := membership.ParseRoster(roster)
	if err != nil {
		t.Fatal(err)
	}
	obsView, err := membership.NewView(table, "")
	if err != nil {
		t.Fatal(err)
	}
	ft, err := campaign.NewFailoverTransport(obsView, campaign.FailoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseTr, err := wire.DialUDP(baseline.addr)
	if err != nil {
		t.Fatal(err)
	}

	// ~11.9k datagrams at this scale/seed; SIGKILL the victim a third of the
	// way in, while its journal already holds real traffic.
	tee := &teeTransport{
		baseline: baseTr,
		failover: ft,
		killAt:   4000,
		kill: func() {
			if err := procs[victim].cmd.Process.Kill(); err != nil {
				t.Errorf("SIGKILL victim: %v", err)
			}
		},
	}
	if _, err := campaign.Run(campaign.Config{Scale: 0.002, Seed: 9, Transport: tee}); err != nil {
		t.Fatal(err)
	}

	// The sender resolved exactly one death, lost nothing, and replayed the
	// victim's journal.
	ds := ft.Stats()
	if ds.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1 (dispatch stats %+v)", ds.Failovers, ds)
	}
	if ds.SendErrors != 0 {
		t.Fatalf("SendErrors = %d, want 0 (dispatch stats %+v)", ds.SendErrors, ds)
	}
	if ds.Replayed == 0 {
		t.Fatalf("Replayed = 0: the victim's journal never re-sent (dispatch stats %+v)", ds)
	}
	if !obsView.Down(victim) {
		t.Fatal("victim not marked down in the sender's view")
	}

	// The survivors' own views converged on the death (via the sender's
	// /membership/down report; their probers were off).
	for k := 0; k < members; k++ {
		if k == victim {
			continue
		}
		resp, err := http.Get("http://" + healthAddrs[k] + "/membership")
		if err != nil {
			t.Fatalf("GET /membership on survivor %d: %v", k, err)
		}
		var status []membership.MemberStatus
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, ms := range status {
			if want := ms.ID == fmt.Sprintf("r%d", victim); ms.Down != want {
				t.Errorf("survivor %d sees %s down=%v, want %v", k, ms.ID, ms.Down, want)
			}
		}
	}

	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the last loopback datagrams land

	// Reap the SIGKILLed victim; its WAL is the crash-recovery input below.
	select {
	case <-procs[victim].eof:
	case <-time.After(10 * time.Second):
		t.Fatal("victim stdout never closed after SIGKILL")
	}
	procs[victim].cmd.Wait()

	baseStats := lastStatsRecord(t, baseline.stop(t))
	if baseStats["received"] != tee.sent {
		t.Fatalf("baseline saw %d of %d datagrams (kernel loss?); cannot assert byte identity", baseStats["received"], tee.sent)
	}
	if baseStats["inserted"] != tee.sent || baseStats["rejected"] != 0 {
		t.Fatalf("baseline stats %+v, want inserted=%d rejected=0", baseStats, tee.sent)
	}

	// Survivors: nothing lost, nothing rejected (the report-before-reroute
	// ordering means no datagram ever reached a survivor whose view still
	// routed it to the victim), and the reassigned keys visibly admitted.
	failoverAccepted := 0
	for k := 0; k < members; k++ {
		if k == victim {
			continue
		}
		st := lastStatsRecord(t, procs[k].stop(t))
		if st["malformed"] != 0 || st["dropped"] != 0 || st["insert_errors"] != 0 || st["insert_lost"] != 0 {
			t.Fatalf("survivor %d reported losses: %+v", k, st)
		}
		if st["rejected"] != 0 {
			t.Errorf("survivor %d rejected %d datagrams: admission raced the failover report", k, st["rejected"])
		}
		if st["inserted"] != st["received"] {
			t.Errorf("survivor %d inserted %d of %d received", k, st["inserted"], st["received"])
		}
		failoverAccepted += st["accepted_failover"]
	}
	if failoverAccepted == 0 {
		t.Error("no survivor counted accepted_failover: reassigned keys were never admitted as such")
	}

	// Merge-back in process: the victim's recovered WAL plus the survivors'
	// WALs consolidate to exactly the baseline's row count — the overlap
	// window (rows the victim ingested before SIGKILL, replayed in full to
	// the new owners) is stored twice and counted once — with no chunk whose
	// copies differ.
	set, err := sirendb.OpenSet(memberWALs, sirendb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot()
	if snap.Count() <= baseStats["rows"] {
		t.Errorf("members hold %d rows, baseline %d: the victim's WAL recovered no pre-kill rows", snap.Count(), baseStats["rows"])
	}
	_, st := postprocess.ConsolidateSnapshot(snap, postprocess.StreamOptions{})
	if st.Messages != baseStats["rows"] {
		t.Errorf("merged members consolidate %d messages, baseline stored %d: failover %s",
			st.Messages, baseStats["rows"],
			map[bool]string{true: "double-counted", false: "lost rows"}[st.Messages > baseStats["rows"]])
	}
	if st.ChunkConflicts != 0 {
		t.Errorf("failover overlap produced %d conflicting chunks, want 0", st.ChunkConflicts)
	}
	if err := set.Close(); err != nil { // release the WAL locks for siren-analyze
		t.Fatal(err)
	}

	// The proof: the merged member set reproduces the never-killed
	// baseline's report byte for byte.
	outBaseline := runCmd(t, work, analyzeBin, "-db", baselineWAL)
	if !strings.Contains(outBaseline, "Table 2: users, jobs, and processes") {
		t.Fatalf("baseline analysis produced no tables:\n%s", truncate(outBaseline))
	}
	outMerged := runCmd(t, work, analyzeBin, "-db", strings.Join(memberWALs, ","))
	if outMerged != outBaseline {
		t.Errorf("post-failover merged analysis diverges from the baseline:\n--- baseline ---\n%s\n--- merged ---\n%s",
			truncate(outBaseline), truncate(outMerged))
	}
}
