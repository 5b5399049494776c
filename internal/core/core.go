// Package core is SIREN's public facade: it wires the collection transport,
// receiver, database, post-processing, and analysis layers into one
// Pipeline, and exposes the campaign runner and real-binary scanning.
//
// Typical embedded use (in-process channel transport):
//
//	p, _ := core.NewPipeline(core.Options{})
//	res, _ := p.RunCampaign(campaign.Config{Scale: 0.02, Seed: 1})
//	data, stats, _ := p.Analyze()
//	rows := data.DeriveLabels() // Table 5
//	p.Close()
//
// Distributed use mirrors the paper's deployment: run a UDP receiver
// (cmd/siren-receiver), point collectors at it, analyse the WAL-backed
// database afterwards (cmd/siren-analyze).
package core

import (
	"fmt"
	"time"

	"siren/internal/analysis"
	"siren/internal/campaign"
	"siren/internal/collector"
	"siren/internal/membership"
	"siren/internal/obs"
	"siren/internal/postprocess"
	"siren/internal/receiver"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// Options configure a Pipeline.
type Options struct {
	// DBPath is the WAL file backing the message store ("" = in-memory).
	DBPath string
	// UDPAddr, when set, receives datagrams over a real UDP socket bound to
	// this address (e.g. "127.0.0.1:0"); otherwise an in-process channel
	// transport is used.
	UDPAddr string
	// ChannelDepth is the transport/receiver buffer depth (default 1<<18).
	ChannelDepth int
	// Writers is the number of hash-partitioned writer shards of the
	// receiver (0 = the receiver default; see receiver.Options).
	Writers int
	// LossRate injects random datagram loss (0..1) on the sender side, for
	// loss-tolerance experiments. Seeded by LossSeed.
	LossRate float64
	LossSeed int64
	// SendRetries retries failed transport sends (ENOBUFS bursts, picked-up
	// ECONNREFUSED) with jittered backoff instead of dropping the datagram
	// on the first error, and surfaces what remains in SendStats. Applied
	// inside any loss injection so LossRate still measures end-loss.
	SendRetries int
	// Metrics is the one registry the whole pipeline records into: the
	// store's WAL/seal histograms, the receiver's stage latencies and queue
	// gauges, and the retrying sender's delivery counters (see
	// internal/obs). Nil gets a private registry.
	Metrics *obs.Registry
}

// Pipeline owns the receiver side of a SIREN deployment plus the transport
// collectors send into.
type Pipeline struct {
	db        *sirendb.DB
	rcv       *receiver.Receiver
	transport wire.Transport
	chanTr    *wire.ChanTransport        // nil in UDP mode
	retryTr   *membership.RetryTransport // nil unless SendRetries > 0
	closed    bool
}

// NewPipeline builds a pipeline per opts.
func NewPipeline(opts Options) (*Pipeline, error) {
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry("siren-pipeline")
	}
	depth := opts.ChannelDepth
	if depth <= 0 {
		depth = 1 << 18
	}
	// Size the store's shards 1:1 with the receiver's writer shards so
	// batches route writer→store shard directly (receiver.ShardedStore).
	db, err := sirendb.OpenOptions(opts.DBPath, sirendb.Options{
		Shards:  receiver.Options{Writers: opts.Writers}.ResolvedWriters(),
		Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{db: db}
	p.rcv = receiver.New(db, receiver.Options{Depth: depth, Writers: opts.Writers, Metrics: opts.Metrics})

	if opts.UDPAddr != "" {
		addr, err := p.rcv.ListenUDP(opts.UDPAddr)
		if err != nil {
			db.Close()
			return nil, err
		}
		tr, err := wire.DialUDP(addr)
		if err != nil {
			p.rcv.Close()
			db.Close()
			return nil, err
		}
		p.transport = tr
	} else {
		ch := wire.NewChanTransport(depth)
		p.chanTr = ch
		p.rcv.AttachChannel(ch.C())
		p.transport = ch
	}

	if opts.SendRetries > 0 {
		p.retryTr = membership.NewRetryTransport(p.transport, opts.SendRetries,
			membership.Backoff{Base: 5 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.2}, opts.Metrics)
		p.transport = p.retryTr
	}
	if opts.LossRate > 0 {
		// Loss wraps retry: injected drops model network loss past the
		// sender, which no send-side retry can see or repair.
		p.transport = wire.NewLossyTransport(p.transport, opts.LossRate, opts.LossSeed)
	}
	return p, nil
}

// SendStats reports the retrying sender's delivery counters; the zero value
// when SendRetries is off.
func (p *Pipeline) SendStats() membership.SendStats {
	if p.retryTr == nil {
		return membership.SendStats{}
	}
	return p.retryTr.Stats()
}

// Transport returns the sender-side transport (hand it to collectors).
func (p *Pipeline) Transport() wire.Transport { return p.transport }

// DB exposes the message store.
func (p *Pipeline) DB() *sirendb.DB { return p.db }

// Receiver exposes receiver statistics.
func (p *Pipeline) Receiver() *receiver.Receiver { return p.rcv }

// RunCampaign executes the simulated deployment campaign through this
// pipeline's transport.
func (p *Pipeline) RunCampaign(cfg campaign.Config) (*campaign.Result, error) {
	if p.closed {
		return nil, fmt.Errorf("core: pipeline is closed")
	}
	cfg.Transport = p.transport
	return campaign.Run(cfg)
}

// Drain stops accepting new messages and waits until everything sent so far
// is stored; the pipeline cannot send afterwards.
func (p *Pipeline) Drain() error {
	if p.closed {
		return nil
	}
	p.closed = true
	var err error
	if p.chanTr != nil {
		err = p.chanTr.Close()
	} else {
		err = p.transport.Close()
	}
	if cerr := p.rcv.Close(); err == nil {
		err = cerr
	}
	return err
}

// Analyze drains the pipeline (if needed), consolidates all messages via
// the streaming, job-parallel read path (snapshot cursors end to end —
// the store is never materialised as one message slice), and returns the
// analysis dataset plus post-processing statistics.
func (p *Pipeline) Analyze() (*analysis.Dataset, postprocess.Stats, error) {
	if err := p.Drain(); err != nil {
		return nil, postprocess.Stats{}, err
	}
	data, stats := analysis.ConsolidateDataset(p.db.Snapshot(), postprocess.StreamOptions{})
	return data, stats, nil
}

// Close drains and releases everything, syncing the WAL.
func (p *Pipeline) Close() error {
	err := p.Drain()
	if cerr := p.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// ScanBinary re-exports the collector's static analysis of an ELF image for
// real-host use (see cmd/siren-scan).
func ScanBinary(img []byte) (*collector.BinaryReport, error) {
	return collector.ScanBinary(img)
}
