package receiver

import (
	"context"
	"log/slog"
	"strconv"

	"siren/internal/obs"
)

// rcvMetrics holds the receiver's obs instruments, one per ingest stage.
// Every receiver has them (New registers into a private registry when
// Options.Metrics is nil), so the ingest paths record unconditionally;
// BenchmarkReceiverIngest gates what that costs.
type rcvMetrics struct {
	// parseNS is the reader's header-scan latency per datagram, malformed
	// and rejected ones included — the CPU half of the write path; a p99
	// jump here means malformed floods or jumbo payloads. One clock read
	// per datagram: a sample runs from the end of the previous scan, so it
	// also carries the previous datagram's admission and copy into its burst.
	parseNS *obs.Histogram
	// queueWaitNS is shard-queue residency (hand-off → writer dequeue),
	// one sample per datagram recorded once per burst — the backpressure
	// signal: it grows before Dropped does.
	queueWaitNS *obs.Histogram
	// insertNS is the store's insert call latency per flushed
	// batch — the disk half; its p99 is what the stats record carries.
	insertNS *obs.Histogram
	// recvBatch is the datagrams each receive call returned — the batching
	// factor of the socket reader (one recvmmsg call per sample); Sum over
	// Count is datagrams per system call.
	recvBatch *obs.Histogram
}

// registerMetrics creates the receiver's instruments in reg: the stage
// histograms, a queue-depth gauge per writer shard, and the Stats counters.
func (r *Receiver) registerMetrics(reg *obs.Registry) {
	r.mx = rcvMetrics{
		parseNS:     reg.Histogram("siren_ingest_parse_ns", "the reader's wire.Scan latency per datagram (malformed and rejected included)"),
		queueWaitNS: reg.Histogram("siren_ingest_queue_wait_ns", "shard-queue residency from hand-off to writer dequeue, per datagram"),
		insertNS:    reg.Histogram("siren_ingest_insert_ns", "store insert latency per flushed batch"),
		recvBatch:   reg.Histogram("siren_ingest_recv_batch", "datagrams returned per receive call"),
	}
	for i, sh := range r.shards {
		reg.GaugeFunc("siren_ingest_queue_depth", "queued datagrams per writer shard",
			sh.queued.Load, obs.L("shard", strconv.Itoa(i)))
	}
	c := func(name, help string) *obs.Counter { return reg.Counter("siren_ingest_"+name+"_total", help) }
	r.stats = Stats{
		Received:         c("received", "datagrams read from the transport"),
		Inserted:         c("inserted", "messages stored in the database"),
		Malformed:        c("malformed", "datagrams that failed the reader's header scan (never queued)"),
		Dropped:          c("dropped", "datagrams dropped on a full shard queue"),
		Rejected:         c("rejected", "datagrams owned by another roster member"),
		InsertErrors:     c("insert_errors", "failed insert calls"),
		InsertLost:       c("insert_lost", "messages in failed insert calls"),
		AcceptedFailover: c("accepted_failover", "datagrams admitted only because their rank-0 owner is down"),
		ReadErrors:       c("read_errors", "failed socket reads (the reader keeps serving)"),
	}
}

// LogStats writes the receiver's stats record to l: every Stats counter,
// then the live queue depth and the insert-latency p99 so far (0 while the
// receiver is idle) — the two leading indicators of a drowning writer tier
// — then the caller's attrs. It is the one rendering of these numbers
// outside /metrics.
func (r *Receiver) LogStats(l *slog.Logger, attrs ...slog.Attr) {
	s := r.stats.Snapshot()
	l.LogAttrs(context.Background(), slog.LevelInfo, "stats", append([]slog.Attr{
		slog.Int64("received", s.Received),
		slog.Int64("inserted", s.Inserted),
		slog.Int64("malformed", s.Malformed),
		slog.Int64("dropped", s.Dropped),
		slog.Int64("rejected", s.Rejected),
		slog.Int64("insert_errors", s.InsertErrors),
		slog.Int64("insert_lost", s.InsertLost),
		slog.Int64("accepted_failover", s.AcceptedFailover),
		slog.Int64("read_errors", s.ReadErrors),
		slog.Int("queue", r.QueueDepth()),
		slog.Int64("insert_p99_ns", r.mx.insertNS.Snapshot().P99),
	}, attrs...)...)
}

// QueueDepth reports the total number of datagrams queued across all writer
// shard queues at this instant.
func (r *Receiver) QueueDepth() int {
	n := 0
	for _, sh := range r.shards {
		n += int(sh.queued.Load())
	}
	return n
}
