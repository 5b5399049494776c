// Package receiver implements SIREN's message receiver: a UDP server (the
// paper's receiver is also written in Go) that reads datagrams and
// batch-inserts them into the database without becoming the bottleneck.
//
// The pipeline generalises the paper's reader-goroutine → buffered-channel →
// writer-goroutine design into a sharded, multi-worker subsystem:
//
//	one reader ── hash(JobID, Host) ──▶ M shard queues ──▶ M writers
//	(recvmmsg      one burst per shard                      │ 1:1
//	 bursts)       per receive call                   M store shards
//
// The reader drains the socket (tuned SO_RCVBUF) a burst at a time: on
// Linux one recvmmsg call returns every queued datagram, up to burstMax,
// into an arena mapped outside the Go heap (reader.go). The reader scans
// each datagram's header once (wire.Scan): that one scan decides whether it
// is malformed, whether this member admits it, and — by hash(JobID, Host)
// — which of M writer shards takes it. The datagram is copied into that
// shard's burst beside its scanned Fields, so a writer only batches and
// never reads a header again. Each shard receives its burst in one channel
// operation, so the read side pays one system call and one hand-off per
// shard per burst, not per datagram, and allocates nothing once its pool is
// warm. Messages of one job on one host always land on the same shard — so
// sharding itself never introduces cross-shard interleaving for a job —
// while independent jobs insert into the database concurrently. When the store is itself sharded
// by the same hash with a matching count (ShardedStore), each writer
// inserts straight into its own store shard, so the parallelism of the
// pipeline carries through the database instead of re-serialising on a
// store-wide mutex. (UDP delivery may still reorder datagrams before the
// reader sees them; chunk reassembly and consolidation key on SEQ/TIME and
// never depended on arrival order.)
//
// Whole campaigns split across receiver *processes* by membership
// (Options.View): each member of a roster admits only the (JobID, Host) keys
// it owns under rendezvous hashing over the live members and counts the rest
// as Rejected, so N receivers on N ports share one campaign with no
// double-ingest even when senders broadcast to all of them. A roster without
// health addresses is never probed, so its ownership never moves — that is
// the static N-way deployment. Rendezvous scores are independent of the
// low-bits shard modulo, so a member's admitted keys still spread over all
// its shards. Analysis merges the N databases back together
// (sirendb.OpenSet).
//
// A slow disk never backs up into the socket: when a shard queue is full,
// the datagrams that do not fit are dropped exactly as the kernel would
// drop them — SIREN's loss-tolerant design makes that safe. Every loss and
// failure mode is counted in Stats (kernel-style queue drops, malformed
// datagrams, datagrams owned by another member, failed database inserts,
// failed socket reads) instead of disappearing silently, and each datagram
// in exactly one of them: a malformed datagram is counted where it enters
// and never takes queue room, nor is it admitted or rejected.
package receiver

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/membership"
	"siren/internal/obs"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// Stats is the receiver's counters. Each is an obs.Counter that New
// registers as siren_ingest_<name>_total: the ingest paths count into the
// registry, and Snapshot, the stats record and /metrics all read it there.
type Stats struct {
	Received     *obs.Counter // datagrams read from the transport
	Inserted     *obs.Counter // messages stored in the database
	Malformed    *obs.Counter // datagrams that failed the header scan (dropped)
	Dropped      *obs.Counter // datagrams dropped due to a full shard queue
	Rejected     *obs.Counter // datagrams owned by another roster member (dropped by admission)
	InsertErrors *obs.Counter // failed InsertBatch calls
	InsertLost   *obs.Counter // messages in failed InsertBatch calls (upper bound: a partially-applied batch counts whole)
	// AcceptedFailover counts admitted datagrams whose key this receiver
	// owns only because the key's rank-0 member is marked down in the
	// membership view — the observable trace of a failover reassignment
	// (always 0 without a view, and under a roster nobody probes).
	AcceptedFailover *obs.Counter
	// ReadErrors counts failed socket reads other than the receiver's own
	// shutdown; the reader keeps serving after each.
	ReadErrors *obs.Counter
}

// StatsSnapshot is a plain-value copy of the counters at one instant.
type StatsSnapshot struct {
	Received         int64
	Inserted         int64
	Malformed        int64
	Dropped          int64
	Rejected         int64
	InsertErrors     int64
	InsertLost       int64
	AcceptedFailover int64
	ReadErrors       int64
}

// Snapshot copies the counters. Each counter is loaded atomically; the set
// is not a consistent cut across counters (a datagram may be counted
// received but not yet inserted), which telemetry tolerates.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Received:         s.Received.Value(),
		Inserted:         s.Inserted.Value(),
		Malformed:        s.Malformed.Value(),
		Dropped:          s.Dropped.Value(),
		Rejected:         s.Rejected.Value(),
		InsertErrors:     s.InsertErrors.Value(),
		InsertLost:       s.InsertLost.Value(),
		AcceptedFailover: s.AcceptedFailover.Value(),
		ReadErrors:       s.ReadErrors.Value(),
	}
}

// Store is the destination a receiver drains into. *sirendb.DB implements
// it; tests substitute failure-injecting fakes.
type Store interface {
	InsertBatch(ms []wire.Message) error
}

// ShardedStore is the direct-routing fast path: a store partitioned by the
// same wire.PartitionHash the receiver's dispatcher uses. When the store's
// shard count equals the receiver's writer count, every message writer i
// handles hashes to store shard i, so writers call InsertShard(i, batch)
// and skip the store's per-message re-partitioning entirely — each writer
// owns its store shard and inserts contend on nothing.
type ShardedStore interface {
	Store
	StoreShards() int
	InsertShard(shard int, ms []wire.Message) error
}

// ScannedStore is a ShardedStore that takes datagrams as they arrived: the
// writer hands over each datagram with the reader's wire.Scan of it, and the
// store keeps those bytes as the row. Nothing between the socket and the
// store decodes a datagram or builds a Message. *sirendb.DB implements it.
type ScannedStore interface {
	ShardedStore
	InsertScanned(shard int, ds []wire.Scanned) error
}

// Receiver drains a datagram source into a Store.
type Receiver struct {
	db       Store
	direct   ShardedStore // non-nil when writer shards map 1:1 onto store shards
	scanned  ScannedStore // direct, when it takes datagrams as they arrived
	shards   []*shard
	stats    Stats
	batchMax int
	burstCap int // most datagrams in one hand-off: min(burstMax, a shard's limit)
	readBuf  int
	view     *membership.View // membership-table admission (nil: admit everything)
	selfIdx  int              // this receiver's index in view's roster
	mx       rcvMetrics       // obs instruments, registered by New

	// Health state (see health.go): when the datagram source opened and when
	// the last datagram arrived, as UnixNano (0 = never).
	sourceOpenNano atomic.Int64
	lastRecvNano   atomic.Int64

	readerWG  sync.WaitGroup
	writerWG  sync.WaitGroup
	writersOn sync.Once
	closeOnce sync.Once
	closeErr  error
	closing   atomic.Bool
	conn      net.PacketConn // nil when fed from a channel transport
}

// Options configure a receiver.
type Options struct {
	// Depth is the total buffered capacity in datagrams across all shard
	// queues (default 65536) — the paper's "buffered channel of the
	// receiver server", split evenly among writers. Datagrams cross in
	// bursts, but the bound counts datagrams: a burst that does not fit
	// queues the datagrams that do and drops the rest.
	Depth int
	// BatchMax bounds how many messages are folded into one DB insert
	// (default 256).
	BatchMax int
	// Writers is the number of writer shards inserting into the database
	// (default min(GOMAXPROCS, 4): sharding buys parallel scan+insert, so
	// extra shards on a single-core host would only add scheduling
	// overhead). Datagrams are partitioned by hash(JobID, Host), so
	// sharding never splits one job's messages across writers: within one
	// (JobID, Host), read order is storage order. Global insertion order
	// across jobs is scheduler-dependent once Writers > 1 — consolidation
	// never depends on it.
	Writers int
	// ReadBuffer is the SO_RCVBUF size requested for the UDP socket in
	// bytes (default 4 MiB; the kernel caps it at net.core.rmem_max). A
	// large socket buffer absorbs sender bursts while writers flush.
	ReadBuffer int
	// View selects this receiver's slice of a multi-receiver deployment
	// (DESIGN.md §11): a datagram is admitted when this receiver is the
	// highest-rendezvous-scoring member of the view's live set for the
	// datagram's (JOBID, HOST); the rest are counted in Stats.Rejected and
	// discarded before they are queued, so N members share one campaign
	// with no double-ingest even when every sender broadcasts to all of
	// them. A dead member's slice falls to the surviving next-highest
	// scorers instead of being lost until restart; a roster nobody probes
	// never changes, which is the static N-way split. The view must be a
	// member view (its self ID names this receiver). Admissions whose
	// rank-0 owner is marked down are counted in Stats.AcceptedFailover. A
	// datagram that fails the reader's header scan never reaches
	// admission: every member counts it Malformed, never Rejected. Nil (the
	// default) admits everything — the paper's single-receiver deployment.
	View *membership.View
	// Metrics is the registry the receiver's instruments register in:
	// per-stage latency histograms (header scan, shard-queue wait, insert batch),
	// per-shard queue-depth gauges, and every Stats counter (see
	// internal/obs). Nil gets a private registry; telemetry is always
	// recorded. Receivers given one registry share its Stats counters.
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.Depth <= 0 {
		o.Depth = 65536
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 256
	}
	if o.Writers <= 0 {
		o.Writers = runtime.GOMAXPROCS(0)
		if o.Writers > 4 {
			o.Writers = 4
		}
	}
	if o.Depth < o.Writers {
		o.Depth = o.Writers
	}
}

// New creates a receiver writing to db. New panics when Options.View is an
// observer view: a receiver admitting under the wrong rule would
// double-ingest or drop a whole campaign slice, so misconfiguration fails
// loudly at startup.
func New(db Store, opts Options) *Receiver {
	opts.defaults()
	if opts.View != nil && opts.View.SelfIndex() < 0 {
		panic("receiver: View must be a member view (NewView with this receiver's ID), not an observer view")
	}
	r := &Receiver{
		db:       db,
		batchMax: opts.BatchMax,
		readBuf:  opts.ReadBuffer,
		view:     opts.View,
		shards:   make([]*shard, opts.Writers),
	}
	if r.view != nil {
		r.selfIdx = r.view.SelfIndex()
	}
	if r.readBuf <= 0 {
		r.readBuf = 4 << 20
	}
	per := opts.Depth / opts.Writers
	for i := range r.shards {
		r.shards[i] = newShard(per)
	}
	r.burstCap = min(burstMax, per)
	if ss, ok := db.(ShardedStore); ok && ss.StoreShards() == len(r.shards) {
		r.direct = ss
		r.scanned, _ = ss.(ScannedStore)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry("siren-receiver")
	}
	r.registerMetrics(reg)
	return r
}

// ResolvedWriters reports the writer-shard count New would use for these
// Options — exported so callers can size a sharded store 1:1 with the
// receiver (see sirendb.Options.Shards).
func (o Options) ResolvedWriters() int {
	o.defaults()
	return o.Writers
}

// Stats exposes the counters.
func (r *Receiver) Stats() *Stats { return &r.stats }

// DB returns the underlying store.
func (r *Receiver) DB() Store { return r.db }

// startWriters launches the writer shards exactly once.
func (r *Receiver) startWriters() {
	r.writersOn.Do(func() {
		for i, sh := range r.shards {
			r.writerWG.Add(1)
			go r.writeLoop(i, sh)
		}
	})
}

// ListenUDP binds a UDP socket on addr ("127.0.0.1:0" for an ephemeral
// port), requests the tuned SO_RCVBUF, starts the reader and writer
// goroutines, and returns the bound address.
func (r *Receiver) ListenUDP(addr string) (string, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return "", fmt.Errorf("receiver: listen %s: %w", addr, err)
	}
	if err := r.serve(conn); err != nil {
		return "", errors.Join(err, conn.Close())
	}
	return conn.LocalAddr().String(), nil
}

// serve starts draining a bound socket: tuned SO_RCVBUF, the burst
// reader, the writers. The receiver owns conn from here on and closes it
// in Close. One reader is all a socket can use: every read of one file
// descriptor serialises on its read lock, so a second reader would only
// park on that lock (DESIGN.md §2).
func (r *Receiver) serve(conn net.PacketConn) error {
	if uc, ok := conn.(*net.UDPConn); ok {
		// Best-effort: the kernel silently caps at net.core.rmem_max.
		_ = uc.SetReadBuffer(r.readBuf)
	}
	br, err := newBatchReader(conn)
	if err != nil {
		return err
	}
	r.conn = conn
	r.sourceOpenNano.Store(time.Now().UnixNano())
	r.readerWG.Add(1)
	go r.readLoop(br)
	r.startWriters()
	return nil
}

// AttachChannel consumes datagrams from a channel source (wire.ChanTransport)
// instead of a socket — the deterministic in-process mode used by tests and
// simulations. The forwarder gathers what the channel holds, up to
// burstMax datagrams, into one burst per shard, exactly as a socket read
// would. Unlike the UDP path it applies backpressure instead of dropping:
// the source channel already models the lossy socket buffer, so a second
// drop point would double-count loss.
func (r *Receiver) AttachChannel(src <-chan []byte) {
	r.sourceOpenNano.Store(time.Now().UnixNano())
	r.readerWG.Add(1)
	go func() {
		defer r.readerWG.Done()
		pending := make([]*burst, len(r.shards))
		msgs := make([][]byte, 0, burstMax)
		for d := range src {
			msgs = append(msgs[:0], d)
		gather:
			for len(msgs) < burstMax {
				select {
				case d, ok := <-src:
					if !ok {
						break gather
					}
					msgs = append(msgs, d)
				default:
					break gather
				}
			}
			r.ingest(pending, msgs, true)
		}
	}()
	r.startWriters()
}

func (r *Receiver) readLoop(br *batchReader) {
	defer r.readerWG.Done()
	defer br.close()
	pending := make([]*burst, len(r.shards))
	for {
		if err := br.read(); err != nil {
			if r.closing.Load() {
				r.drainSocket(br, pending)
				return
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient socket error: count it and keep serving.
			r.stats.ReadErrors.Inc()
			continue
		}
		r.ingest(pending, br.msgs, false)
	}
}

// ingest takes one receive call's datagrams: it counts them and stamps the
// last-receive and queue-wait clocks once, then gives each datagram its one
// header scan — a datagram that fails it is counted Malformed and goes no
// further — admits and routes it by that scan, and copies it out of the
// reader's slot into its shard's burst beside its Fields. Every shard then
// gets its burst in one channel operation. A burst is handed off early when
// it reaches burstCap, so it always fits an empty shard. pending holds the
// bursts under construction, one slot per shard, all nil between calls; the
// socket reader and the channel forwarder each own one.
func (r *Receiver) ingest(pending []*burst, msgs [][]byte, block bool) {
	// One clock read per datagram after this one: each scan's end starts
	// the next scan's sample.
	t := time.Now()
	now := t.UnixNano()
	r.stats.Received.Add(int64(len(msgs)))
	r.lastRecvNano.Store(now)
	r.mx.recvBatch.Record(int64(len(msgs)))
	for _, d := range msgs {
		f, err := wire.Scan(d)
		end := time.Now()
		r.mx.parseNS.Record(int64(end.Sub(t)))
		t = end
		if err != nil {
			r.stats.Malformed.Inc()
			continue
		}
		idx, ok := r.route(d, &f)
		if !ok {
			continue
		}
		b := pending[idx]
		if b == nil {
			b = burstPool.Get().(*burst)
			pending[idx] = b
		}
		b.add(d, &f)
		if len(b.ends) == r.burstCap {
			r.handOff(r.shards[idx], b, now, block)
			pending[idx] = nil
			t = time.Now() // a hand-off that waited is not the next scan
		}
	}
	for idx, b := range pending {
		if b != nil {
			r.handOff(r.shards[idx], b, now, block)
			pending[idx] = nil
		}
	}
}

// route applies membership admission and picks a scanned datagram's writer
// shard. Both read the JOBID and HOST values of its scan, but through
// independent hashes (rendezvous scores vs the low-bits shard modulo of
// wire.PartitionHash), so a member's admitted slice still spreads over all
// its writer and store shards. A datagram another member owns is counted
// Rejected and not routed (ok false).
func (r *Receiver) route(d []byte, f *wire.Fields) (idx int, ok bool) {
	job, host := f.Value(d, wire.FieldJobID), f.Value(d, wire.FieldHost)
	if r.view != nil {
		// Membership admission: accept exactly the keys this member owns
		// under the current live view; when ownership arrived by failover
		// (the key's rank-0 member is down), count it.
		rank0, owner := r.view.Route(job, host)
		if owner != r.selfIdx {
			r.stats.Rejected.Inc()
			return 0, false
		}
		if rank0 != r.selfIdx {
			r.stats.AcceptedFailover.Inc()
		}
	}
	if len(r.shards) > 1 {
		idx = int(wire.PartitionHash(job, host) % uint64(len(r.shards)))
	}
	return idx, true
}

// handOff queues one burst on its shard. Blocking mode (channel transport,
// shutdown drain) waits for room; non-blocking mode (UDP) queues the
// datagrams that fit and drops the rest, counting each in Dropped, like a
// kernel socket-buffer overflow.
func (r *Receiver) handOff(sh *shard, b *burst, enq int64, block bool) {
	b.enq = enq
	n := len(b.ends)
	if block {
		sh.reserveAll(n)
	} else if k := sh.reserveUpTo(n); k < n {
		r.stats.Dropped.Add(int64(n - k))
		if k == 0 {
			putBurst(b)
			return
		}
		b.truncate(k)
	}
	sh.ch <- b
}

// writeLoop is writer idx: it batches the datagrams of the bursts it takes,
// still in their bursts' bytes and with the reader's scans, for the store. A
// burst goes back to the pool once no batch row points into it.
func (r *Receiver) writeLoop(idx int, sh *shard) {
	defer r.writerWG.Done()
	batch := make([]wire.Scanned, 0, r.batchMax)
	var held []*burst // bursts the unflushed batch points into
	insert := r.inserter(idx)
	flush := func() {
		if len(batch) > 0 {
			insStart := time.Now()
			if err := insert(batch); err != nil {
				// The batch is lost, but never silently: both the failed call
				// and the message count surface in Stats.
				r.stats.InsertErrors.Inc()
				r.stats.InsertLost.Add(int64(len(batch)))
			} else {
				r.stats.Inserted.Add(int64(len(batch)))
			}
			r.mx.insertNS.Since(insStart)
			batch = batch[:0]
		}
		for _, b := range held {
			putBurst(b)
		}
		held = held[:0]
	}
	take := func(b *burst) {
		sh.release(len(b.ends))
		r.mx.queueWaitNS.RecordN(time.Now().UnixNano()-b.enq, int64(len(b.ends)))
		start := 0
		for i, end := range b.ends {
			batch = append(batch, wire.Scanned{Datagram: b.buf[start:end:end], Fields: b.fields[i]})
			start = end
			if len(batch) == r.batchMax {
				flush()
			}
		}
		if len(batch) == 0 {
			putBurst(b) // nothing points into it
		} else {
			held = append(held, b)
		}
	}
	for b := range sh.ch {
		take(b)
		// Opportunistically drain whatever is already queued, then flush —
		// batches form under load, latency stays low when idle.
	drain:
		for len(batch) < r.batchMax {
			select {
			case b, ok := <-sh.ch:
				if !ok {
					flush()
					return
				}
				take(b)
			default:
				break drain
			}
		}
		flush()
	}
	flush()
}

// inserter returns writer idx's insert call. A ScannedStore takes the
// scanned datagrams as they are; any other store is handed Messages, built
// from the scans by a Decoder of this writer's own (header strings shared
// across its rows) into a batch slice it reuses.
func (r *Receiver) inserter(idx int) func([]wire.Scanned) error {
	if r.scanned != nil {
		return func(batch []wire.Scanned) error { return r.scanned.InsertScanned(idx, batch) }
	}
	var dec wire.Decoder
	msgs := make([]wire.Message, 0, r.batchMax)
	return func(batch []wire.Scanned) error {
		msgs = msgs[:0]
		for i := range batch {
			var m wire.Message
			dec.Fill(&batch[i], &m)
			msgs = append(msgs, m)
		}
		// Direct routing: writer idx's messages all hash to store shard idx
		// (same partition hash, same shard count), so the batch lands in its
		// store shard without re-partitioning or cross-shard locking.
		if r.direct != nil {
			return r.direct.InsertShard(idx, msgs)
		}
		return r.db.InsertBatch(msgs)
	}
}

// Close stops the receiver and waits for in-flight datagrams to be stored:
// datagrams already accepted by the kernel socket buffer are drained before
// the socket closes, so a tuned SO_RCVBUF never turns into silent loss at
// shutdown. Close is idempotent; in channel mode the source must be closed
// first.
func (r *Receiver) Close() error {
	r.closeOnce.Do(func() {
		r.closing.Store(true)
		if r.conn != nil {
			// Wake the reader parked on the netpoller; it observes closing,
			// drains what the kernel still holds and exits.
			_ = r.conn.SetReadDeadline(time.Now())
			r.readerWG.Wait()
			r.closeErr = r.conn.Close()
		} else {
			r.readerWG.Wait()
		}
		r.startWriters() // a never-started receiver still closes cleanly
		for _, sh := range r.shards {
			close(sh.ch)
		}
		r.writerWG.Wait()
	})
	return r.closeErr
}

// drainSocket empties the kernel socket buffer into the shards with the
// reader's own burst reader: it reads until the socket stays idle for
// drainIdle (or drainCap total, should a sender still be transmitting),
// handing off with backpressure so nothing read here is dropped.
func (r *Receiver) drainSocket(br *batchReader, pending []*burst) {
	const (
		drainIdle = 50 * time.Millisecond
		drainCap  = 2 * time.Second
	)
	deadline := time.Now().Add(drainCap)
	for time.Now().Before(deadline) {
		if err := r.conn.SetReadDeadline(time.Now().Add(drainIdle)); err != nil {
			return
		}
		if err := br.read(); err != nil {
			return // idle (deadline exceeded) or socket gone: drained
		}
		r.ingest(pending, br.msgs, true)
	}
}

var _ ScannedStore = (*sirendb.DB)(nil)
