package receiver

import (
	"fmt"
	"strconv"

	"siren/internal/obs"
)

// rcvMetrics holds the receiver's obs instruments, one per ingest stage.
// Every receiver has them (New registers into a private registry when
// Options.Metrics is nil), so the ingest paths record unconditionally;
// BenchmarkReceiverIngest gates what that costs.
type rcvMetrics struct {
	// parseNS is the writer's decode latency per datagram — the CPU half of the
	// write path; a p99 jump here means malformed floods or jumbo payloads.
	parseNS *obs.Histogram
	// queueWaitNS is shard-queue residency (hand-off → writer dequeue),
	// one sample per datagram recorded once per burst — the backpressure
	// signal: it grows before Dropped does.
	queueWaitNS *obs.Histogram
	// insertNS is the InsertBatch/InsertShard call latency per flushed
	// batch — the disk half; its p99 is what the periodic stats line prints.
	insertNS *obs.Histogram
	// recvBatch is the datagrams each receive call returned — the batching
	// factor of the socket reader (one recvmmsg call per sample); Sum over
	// Count is datagrams per system call.
	recvBatch *obs.Histogram
}

// registerMetrics creates the receiver's instruments in reg: the three
// stage histograms, a queue-depth gauge per writer shard, and a counter
// bridge onto every Stats atomic (the hot path keeps its single increment;
// the registry reads the atomics only when scraped).
func (r *Receiver) registerMetrics(reg *obs.Registry) {
	r.mx = rcvMetrics{
		parseNS:     reg.Histogram("siren_ingest_parse_ns", "the writer's wire.Decoder latency per datagram (malformed included)"),
		queueWaitNS: reg.Histogram("siren_ingest_queue_wait_ns", "shard-queue residency from hand-off to writer dequeue, per datagram"),
		insertNS:    reg.Histogram("siren_ingest_insert_ns", "store insert latency per flushed batch"),
		recvBatch:   reg.Histogram("siren_ingest_recv_batch", "datagrams returned per receive call"),
	}
	for i, sh := range r.shards {
		reg.GaugeFunc("siren_ingest_queue_depth", "queued datagrams per writer shard",
			sh.queued.Load, obs.L("shard", strconv.Itoa(i)))
	}
	reg.CounterFunc("siren_ingest_received_total", "datagrams read from the transport", r.stats.Received.Load)
	reg.CounterFunc("siren_ingest_inserted_total", "messages stored in the database", r.stats.Inserted.Load)
	reg.CounterFunc("siren_ingest_malformed_total", "datagrams that failed to parse", r.stats.Malformed.Load)
	reg.CounterFunc("siren_ingest_dropped_total", "datagrams dropped on a full shard queue", r.stats.Dropped.Load)
	reg.CounterFunc("siren_ingest_rejected_total", "datagrams owned by another roster member", r.stats.Rejected.Load)
	reg.CounterFunc("siren_ingest_insert_errors_total", "failed insert calls", r.stats.InsertErrors.Load)
	reg.CounterFunc("siren_ingest_insert_lost_total", "messages in failed insert calls", r.stats.InsertLost.Load)
	reg.CounterFunc("siren_ingest_accepted_failover_total", "datagrams admitted only because their rank-0 owner is down", r.stats.AcceptedFailover.Load)
	reg.CounterFunc("siren_ingest_read_errors_total", "failed socket reads (the reader keeps serving)", r.stats.ReadErrors.Load)
}

// StatsLine renders the periodic log line cmd/siren-receiver prints: the
// Stats counter snapshot plus the live queue depth and the insert-latency
// p99 so far (0 while the receiver is idle) — the two
// leading indicators of a drowning writer tier, visible without a scrape.
func (r *Receiver) StatsLine() string {
	return fmt.Sprintf("%s queue=%d insert_p99_ns=%d",
		r.stats.String(), r.QueueDepth(), r.mx.insertNS.Snapshot().P99)
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
