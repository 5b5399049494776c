// Multi-receiver cluster end-to-end test: one campaign broadcast over real
// UDP to a roster-less receiver process and to the three members of a roster
// without health addresses — the static deployment, a roster nobody probes —
// then analysed both ways: the single database versus the merged
// three-member set. The three-member deployment must be indistinguishable in
// the report output and ingest exactly once in total.
package siren_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"siren/internal/campaign"
	"siren/internal/wire"
)

// rcvProc is one running siren-receiver process with its stdout captured.
type rcvProc struct {
	cmd   *exec.Cmd
	addr  string
	mu    sync.Mutex
	lines []string
	eof   chan struct{}
}

func startReceiver(t *testing.T, bin string, args ...string) *rcvProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &rcvProc{cmd: cmd, eof: make(chan struct{})}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.lines = append(p.lines, line)
		p.mu.Unlock()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			p.addr = strings.Fields(rest)[0]
			break
		}
	}
	if p.addr == "" {
		t.Fatalf("receiver %v never announced its address: %v", args, sc.Err())
	}
	go func() {
		defer close(p.eof)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	return p
}

// stop SIGTERMs the receiver, waits for a clean exit, and returns its full
// stdout (the last line is the final stats report).
func (p *rcvProc) stop(t *testing.T) []string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.eof:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		t.Fatal("receiver did not exit on SIGTERM")
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("receiver exited with error: %v", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.lines...)
}

// fanoutTransport broadcasts every datagram to all member transports — the
// sender side of a multi-receiver deployment where collectors spray across all
// receiver ports and rely on admission to deduplicate.
type fanoutTransport struct {
	members []wire.Transport
	sent    int
	mu      sync.Mutex
}

func (f *fanoutTransport) Send(d []byte) error {
	f.mu.Lock()
	f.sent++
	f.mu.Unlock()
	for _, m := range f.members {
		if err := m.Send(d); err != nil {
			return err
		}
	}
	return nil
}

func (f *fanoutTransport) Close() error {
	var first error
	for _, m := range f.members {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func TestMultiReceiverClusterEndToEnd(t *testing.T) {
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
	const parts = 3
	common := []string{"-stats-interval", "0", "-rcvbuf", "8388608"}

	// Roster: every member's UDP port reserved up front, no health address,
	// so no member is ever probed or marked down.
	udpAddrs := make([]string, parts)
	entries := make([]string, parts)
	for k := 0; k < parts; k++ {
		udpAddrs[k] = freeAddr(t, "udp")
		entries[k] = fmt.Sprintf("r%d=%s", k, udpAddrs[k])
	}
	roster := strings.Join(entries, ",")

	singleWAL := filepath.Join(work, "single.wal")
	single := startReceiver(t, receiverBin, append([]string{"-db", singleWAL, "-addr", "127.0.0.1:0"}, common...)...)
	members := make([]*rcvProc, parts)
	memberWALs := make([]string, parts)
	for k := 0; k < parts; k++ {
		memberWALs[k] = filepath.Join(work, fmt.Sprintf("member-%d.wal", k))
		// -addr defaults from the member's roster entry.
		members[k] = startReceiver(t, receiverBin, append([]string{
			"-db", memberWALs[k], "-member-id", fmt.Sprintf("r%d", k), "-roster", roster,
		}, common...)...)
		if members[k].addr != udpAddrs[k] {
			t.Fatalf("member %d bound %s, want its roster address %s", k, members[k].addr, udpAddrs[k])
		}
	}

	// One campaign, every datagram broadcast to all four receivers: the
	// single receiver admits everything, each member admits its slice.
	fan := &fanoutTransport{}
	for _, p := range append([]*rcvProc{single}, members...) {
		tr, err := wire.DialUDP(p.addr)
		if err != nil {
			t.Fatal(err)
		}
		fan.members = append(fan.members, tr)
	}
	if _, err := campaign.Run(campaign.Config{Scale: 0.002, Seed: 9, Transport: fan}); err != nil {
		t.Fatal(err)
	}
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the last loopback datagrams land

	singleStats := lastStatsRecord(t, single.stop(t))
	memberStats := make([]map[string]int, parts)
	for k, p := range members {
		memberStats[k] = lastStatsRecord(t, p.stop(t))
	}

	// The equality assertions below presuppose lossless delivery; loopback
	// with an 8 MiB socket buffer and drain-on-close provides it, and this
	// check tells a kernel-drop flake apart from an admission bug.
	for i, st := range append([]map[string]int{singleStats}, memberStats...) {
		if st["received"] != fan.sent {
			t.Fatalf("receiver %d saw %d of %d datagrams (kernel loss?); cannot assert admission equalities", i, st["received"], fan.sent)
		}
		if st["malformed"] != 0 || st["dropped"] != 0 || st["insert_errors"] != 0 || st["insert_lost"] != 0 {
			t.Fatalf("receiver %d reported losses: %+v", i, st)
		}
		if st["accepted_failover"] != 0 {
			t.Errorf("receiver %d accepted_failover=%d under a roster nobody probes, want 0", i, st["accepted_failover"])
		}
	}

	// Admission contract: the single receiver ingested the whole campaign;
	// the members ingested disjoint slices that union to it exactly — zero
	// double-ingest — and every non-owned datagram is visible as rejected.
	if singleStats["inserted"] != fan.sent || singleStats["rejected"] != 0 {
		t.Errorf("single receiver: %+v, want inserted=%d rejected=0", singleStats, fan.sent)
	}
	sumRows := 0
	for k, st := range memberStats {
		if st["inserted"] == 0 {
			t.Errorf("member %d ingested nothing; roster admission over-rejected", k)
		}
		if st["rejected"] != fan.sent-st["inserted"] {
			t.Errorf("member %d: rejected=%d, want received-inserted=%d", k, st["rejected"], fan.sent-st["inserted"])
		}
		if st["rejected"] == 0 {
			t.Errorf("member %d rejected nothing; admission is not filtering", k)
		}
		sumRows += st["rows"]
	}
	if sumRows != singleStats["rows"] {
		t.Errorf("member rows sum to %d, single receiver stored %d: double- or under-ingest across the roster", sumRows, singleStats["rows"])
	}

	// Analysis equivalence: the merged member set must reproduce the single
	// receiver's report byte for byte.
	outSingle := runCmd(t, work, analyzeBin, "-db", singleWAL)
	if !strings.Contains(outSingle, "Table 2: users, jobs, and processes") {
		t.Fatalf("single-receiver analysis produced no tables:\n%s", truncate(outSingle))
	}
	outMerged := runCmd(t, work, analyzeBin, "-db", strings.Join(memberWALs, ","))
	if outMerged != outSingle {
		t.Errorf("merged analysis diverges from single-receiver analysis:\n--- single ---\n%s\n--- merged ---\n%s",
			truncate(outSingle), truncate(outMerged))
	}

	// Same merge addressed by glob over the members' on-disk segment files.
	outGlob := runCmd(t, work, analyzeBin, "-db", filepath.Join(work, "member-*.wal.0"))
	if outGlob != outSingle {
		t.Error("glob-addressed merged analysis diverges from single-receiver analysis")
	}

	// And one table as CSV, for a stable machine-readable comparison.
	csvSingle := runCmd(t, work, analyzeBin, "-db", singleWAL, "-csv", "table5")
	csvMerged := runCmd(t, work, analyzeBin, "-db", strings.Join(memberWALs, ","), "-csv", "table5")
	if csvSingle != csvMerged {
		t.Errorf("table5 CSV diverges:\n--- single ---\n%s\n--- merged ---\n%s", csvSingle, csvMerged)
	}
}
