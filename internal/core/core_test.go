package core

import (
	"path/filepath"
	"strings"
	"testing"

	"siren/internal/campaign"
	"siren/internal/sirendb"
	"siren/internal/toolchain"
	"siren/internal/wire"
)

func TestPipelineChannelEndToEnd(t *testing.T) {
	p, err := NewPipeline(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.RunCampaign(campaign.Config{Scale: 0.001, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsRun == 0 {
		t.Fatal("no jobs ran")
	}
	data, stats, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processes == 0 {
		t.Fatal("no processes consolidated")
	}
	if len(data.Users()) != 12 {
		t.Errorf("users = %d, want 12", len(data.Users()))
	}
	// Analyze is idempotent after drain.
	if _, _, err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	// RunCampaign after drain fails cleanly.
	if _, err := p.RunCampaign(campaign.Config{Scale: 0.001}); err == nil {
		t.Error("campaign after drain should fail")
	}
}

func TestPipelineUDPEndToEnd(t *testing.T) {
	p, err := NewPipeline(Options{UDPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.RunCampaign(campaign.Config{Scale: 0.001, Seed: 3, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	data, _, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Loopback UDP may drop a little under burst, but the bulk must arrive.
	if got := p.Receiver().Stats().Received.Load(); got == 0 {
		t.Fatal("nothing received over UDP")
	}
	if len(data.Users()) < 10 {
		t.Errorf("users = %d", len(data.Users()))
	}
}

func TestPipelinePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siren.wal")
	p, err := NewPipeline(Options{DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunCampaign(campaign.Config{Scale: 0.001, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := sirendb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Count() == 0 {
		t.Error("WAL replay yielded nothing")
	}
}

func TestPipelineLossInjection(t *testing.T) {
	p, err := NewPipeline(Options{LossRate: 0.01, LossSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.RunCampaign(campaign.Config{Scale: 0.005, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	lossy := p.Transport().(*wire.LossyTransport)
	if lossy.Dropped == 0 {
		t.Fatal("1% loss dropped nothing")
	}
	if stats.Messages != lossy.Sent {
		t.Errorf("stored %d messages, the lossy transport passed %d", stats.Messages, lossy.Sent)
	}
	// Concurrent campaign workers interleave their sends, so which datagrams
	// drop varies from run to run, and a drop only marks a field missing when
	// it takes some but not all chunks of a record. The expectation is
	// therefore read from what reached the store: the records with a chunk
	// gone.
	type count struct{ got, total int }
	chunks := map[wire.Header]count{} // by record: the header without Seq/Total
	sn := p.DB().Snapshot()
	sn.Iter(func(m wire.Message) bool {
		if m.Total > 1 {
			id := m.Header
			id.Seq, id.Total = 0, 0
			c := chunks[id]
			chunks[id] = count{c.got + 1, max(c.total, m.Total)}
		}
		return true
	})
	if err := sn.Err(); err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for _, c := range chunks {
		if c.got < c.total {
			incomplete++
		}
	}
	t.Logf("%d datagrams dropped, %d records missing a chunk, %d of %d processes with missing fields",
		lossy.Dropped, incomplete, stats.ProcessesWithMissing, stats.Processes)
	if (stats.ProcessesWithMissing > 0) != (incomplete > 0) || stats.ProcessesWithMissing > incomplete {
		t.Errorf("%d processes with missing fields from %d records missing a chunk", stats.ProcessesWithMissing, incomplete)
	}
	// The pipeline survives loss: the bulk of the data is intact.
	if stats.ProcessesWithMissing*5 > stats.Processes {
		t.Errorf("too many incomplete processes: %d/%d", stats.ProcessesWithMissing, stats.Processes)
	}
}

func TestScanBinaryFacade(t *testing.T) {
	art, err := toolchain.Compile(
		toolchain.Source{Name: "x", Version: "1"},
		toolchain.BuildOptions{Compilers: []toolchain.Compiler{toolchain.GCCSUSE}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScanBinary(art.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.Compilers[0], "GCC:") || rep.FileH == "" {
		t.Errorf("report = %+v", rep)
	}
}
