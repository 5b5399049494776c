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
// into an arena mapped outside the Go heap (reader.go). Each datagram is
// hash-partitioned by its (JobID, Host) header fields onto one of M writer
// shards and copied into that shard's burst; each shard then receives its
// burst in one channel operation, so the read side pays one system call,
// one clock read and one hand-off per shard per burst, not per datagram,
// and allocates nothing once its pool is warm. Messages of one job on one
// host always land on the same shard — so sharding itself never
// introduces cross-shard interleaving for a job — while independent jobs
// insert into the database concurrently. When the store is itself sharded
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
// failed socket reads) instead of disappearing silently.
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

// Stats counts receiver activity.
type Stats struct {
	Received     atomic.Int64 // datagrams read from the transport
	Inserted     atomic.Int64 // messages stored in the database
	Malformed    atomic.Int64 // datagrams that failed to parse (dropped)
	Dropped      atomic.Int64 // datagrams dropped due to a full shard queue
	Rejected     atomic.Int64 // datagrams owned by another roster member (dropped by admission)
	InsertErrors atomic.Int64 // failed InsertBatch calls
	InsertLost   atomic.Int64 // messages in failed InsertBatch calls (upper bound: a partially-applied batch counts whole)
	// AcceptedFailover counts admitted datagrams whose key this receiver
	// owns only because the key's rank-0 member is marked down in the
	// membership view — the observable trace of a failover reassignment
	// (always 0 without a view, and under a roster nobody probes).
	AcceptedFailover atomic.Int64
	// ReadErrors counts failed socket reads other than the receiver's own
	// shutdown; the reader keeps serving after each.
	ReadErrors atomic.Int64
}

// StatsSnapshot is a plain-value copy of the counters at one instant — the
// shape cmd/siren-receiver exports over expvar (the field names become the
// JSON keys of the "siren_receiver" var).
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
		Received:         s.Received.Load(),
		Inserted:         s.Inserted.Load(),
		Malformed:        s.Malformed.Load(),
		Dropped:          s.Dropped.Load(),
		Rejected:         s.Rejected.Load(),
		InsertErrors:     s.InsertErrors.Load(),
		InsertLost:       s.InsertLost.Load(),
		AcceptedFailover: s.AcceptedFailover.Load(),
		ReadErrors:       s.ReadErrors.Load(),
	}
}

// String renders a one-line snapshot, the shape cmd/siren-receiver logs
// periodically.
func (s *Stats) String() string {
	v := s.Snapshot()
	return fmt.Sprintf("received=%d inserted=%d malformed=%d dropped=%d rejected=%d insert_errors=%d insert_lost=%d accepted_failover=%d",
		v.Received, v.Inserted, v.Malformed, v.Dropped, v.Rejected, v.InsertErrors, v.InsertLost, v.AcceptedFailover)
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

// Receiver drains a datagram source into a Store.
type Receiver struct {
	db       Store
	direct   ShardedStore // non-nil when writer shards map 1:1 onto store shards
	shards   []*shard
	stats    *Stats
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
	// (default min(GOMAXPROCS, 4): sharding buys parallel parse+insert, so
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
	// discarded before parsing, so N members share one campaign with no
	// double-ingest even when every sender broadcasts to all of them. A dead
	// member's slice falls to the surviving next-highest scorers instead of
	// being lost until restart; a roster nobody probes never changes, which
	// is the static N-way split. The view must be a member view (its self ID
	// names this receiver). Admissions whose rank-0 owner is marked down are
	// counted in Stats.AcceptedFailover. Datagrams whose header cannot be
	// scanned bypass admission and are counted Malformed by the parse stage,
	// identically on every member. Nil (the default) admits everything —
	// the paper's single-receiver deployment.
	View *membership.View
	// Metrics is the registry the receiver's instruments register in:
	// per-stage latency histograms (parse, shard-queue wait, insert batch),
	// per-shard queue-depth gauges, and counter bridges onto every Stats
	// counter (see internal/obs). Nil gets a private registry; telemetry is
	// always recorded.
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
		stats:    &Stats{},
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
func (r *Receiver) Stats() *Stats { return r.stats }

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
			r.stats.ReadErrors.Add(1)
			continue
		}
		r.ingest(pending, br.msgs, false)
	}
}

// ingest takes one receive call's datagrams: it counts them and stamps the
// last-receive and queue-wait clocks once, routes each datagram to its
// shard's burst — copying it out of the reader's slot, the only
// per-datagram work on the read side besides the header scan — and hands
// every shard its burst in one channel operation. A burst is handed off
// early when it reaches burstCap, so it always fits an empty shard.
// pending holds the bursts under construction, one slot per shard, all nil
// between calls; the socket reader and the channel forwarder each own one.
func (r *Receiver) ingest(pending []*burst, msgs [][]byte, block bool) {
	now := time.Now().UnixNano()
	r.stats.Received.Add(int64(len(msgs)))
	r.lastRecvNano.Store(now)
	r.mx.recvBatch.Record(int64(len(msgs)))
	for _, d := range msgs {
		idx, ok := r.route(d)
		if !ok {
			continue
		}
		b := pending[idx]
		if b == nil {
			b = burstPool.Get().(*burst)
			pending[idx] = b
		}
		b.add(d)
		if len(b.ends) == r.burstCap {
			r.handOff(r.shards[idx], b, now, block)
			pending[idx] = nil
		}
	}
	for idx, b := range pending {
		if b != nil {
			r.handOff(r.shards[idx], b, now, block)
			pending[idx] = nil
		}
	}
}

// route applies membership admission and picks a datagram's writer shard
// — both decisions come from one wire.PartitionFields scan of the header,
// but from independent hashes (rendezvous scores vs the low-bits shard
// modulo of wire.PartitionHash), so a member's admitted slice still spreads
// over all its writer and store shards. A datagram another member owns is
// counted Rejected and not routed (ok false); one whose header cannot be
// scanned bypasses admission and lands on shard 0, where Parse counts it as
// malformed — every member of a roster agrees on that, so a malformed
// datagram is never double-ingested either. Single-shard receivers without
// a view skip the header scan entirely (its result would be unused).
func (r *Receiver) route(d []byte) (idx int, ok bool) {
	if r.view == nil && len(r.shards) == 1 {
		return 0, true
	}
	job, host, scanned := wire.PartitionFields(d)
	if !scanned {
		return 0, true
	}
	if r.view != nil {
		// Membership admission: accept exactly the keys this member owns
		// under the current live view; when ownership arrived by failover
		// (the key's rank-0 member is down), count it.
		rank0, owner := r.view.Route(job, host)
		if owner != r.selfIdx {
			r.stats.Rejected.Add(1)
			return 0, false
		}
		if rank0 != r.selfIdx {
			r.stats.AcceptedFailover.Add(1)
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

func (r *Receiver) writeLoop(idx int, sh *shard) {
	defer r.writerWG.Done()
	batch := make([]wire.Message, 0, r.batchMax)
	var dec wire.Decoder // this writer's alone: header strings shared across its rows
	insert := func() error {
		// Direct routing: writer idx's messages all hash to store shard idx
		// (same partition hash, same shard count), so the batch lands in its
		// store shard without re-partitioning or cross-shard locking.
		if r.direct != nil {
			return r.direct.InsertShard(idx, batch)
		}
		return r.db.InsertBatch(batch)
	}
	flush := func() {
		if len(batch) == 0 {
			return
		}
		insStart := time.Now()
		if err := insert(); err != nil {
			// The batch is lost, but never silently: both the failed call
			// and the message count surface in Stats.
			r.stats.InsertErrors.Add(1)
			r.stats.InsertLost.Add(int64(len(batch)))
		} else {
			r.stats.Inserted.Add(int64(len(batch)))
		}
		r.mx.insertNS.Since(insStart)
		batch = batch[:0]
	}
	take := func(b *burst) {
		sh.release(len(b.ends))
		// One clock read ends the burst's queue wait and starts the first
		// parse; each parse's end starts the next.
		t := time.Now()
		r.mx.queueWaitNS.RecordN(t.UnixNano()-b.enq, int64(len(b.ends)))
		start := 0
		for _, end := range b.ends {
			var m wire.Message
			err := dec.Decode(b.buf[start:end], &m)
			start = end
			now := time.Now()
			r.mx.parseNS.Record(int64(now.Sub(t)))
			t = now
			if err != nil {
				r.stats.Malformed.Add(1)
				continue
			}
			batch = append(batch, m)
			if len(batch) == r.batchMax {
				flush()
				t = time.Now() // the insert is not the next datagram's parse
			}
		}
		putBurst(b) // the decoder copied what it needs; recycle immediately
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

var _ ShardedStore = (*sirendb.DB)(nil)
