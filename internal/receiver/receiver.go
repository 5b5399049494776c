// Package receiver implements SIREN's message receiver: a UDP server (the
// paper's receiver is also written in Go) that reads datagrams and
// batch-inserts them into the database without becoming the bottleneck.
//
// The pipeline generalises the paper's reader-goroutine → buffered-channel →
// writer-goroutine design into a sharded, multi-worker subsystem:
//
//	N reader goroutines ── hash(JobID, Host) ──▶ M shard channels ──▶ M writers
//	                                                                    │ 1:1
//	                                                              M store shards
//
// Readers drain the socket (tuned SO_RCVBUF) into sync.Pool-backed datagram
// buffers, so the hot path performs no per-packet heap allocation. Each
// datagram is hash-partitioned by its (JobID, Host) header fields onto one of
// M writer shards: messages of one job on one host always land on the same
// shard — so sharding itself never introduces cross-shard interleaving for a
// job — while independent jobs insert into the database concurrently. When
// the store is itself sharded by the same hash with a matching count
// (ShardedStore), each writer inserts straight into its own store shard, so
// the parallelism of the channel pipeline carries through the database
// instead of re-serialising on a store-wide mutex. (UDP
// delivery and concurrent readers may still reorder datagrams before the
// dispatch point, exactly as the network may; chunk reassembly and
// consolidation key on SEQ/TIME and never depended on arrival order.)
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
// A slow disk never backs up into the socket: when a shard channel is full,
// datagrams are dropped exactly as the kernel would drop them — SIREN's
// loss-tolerant design makes that safe. Every loss and failure mode is
// counted in Stats (kernel-style channel drops, malformed datagrams,
// datagrams owned by another member, failed database inserts) instead of
// disappearing silently.
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
	Dropped      atomic.Int64 // datagrams dropped due to a full shard channel
	Rejected     atomic.Int64 // datagrams owned by another roster member (dropped by admission)
	InsertErrors atomic.Int64 // failed InsertBatch calls
	InsertLost   atomic.Int64 // messages in failed InsertBatch calls (upper bound: a partially-applied batch counts whole)
	// AcceptedFailover counts admitted datagrams whose key this receiver
	// owns only because the key's rank-0 member is marked down in the
	// membership view — the observable trace of a failover reassignment
	// (always 0 without a view, and under a roster nobody probes).
	AcceptedFailover atomic.Int64
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

// pkt is one in-flight datagram. When buf is non-nil the data slice aliases
// a pooled buffer that must be returned to bufPool after parsing. enq is
// the dispatch timestamp (UnixNano); the writer turns it into the
// queue-wait histogram sample.
type pkt struct {
	data []byte
	buf  *[]byte
	enq  int64
}

// bufPool recycles datagram buffers between readers and writers, eliminating
// the per-packet heap allocation (and its GC pressure) of the naive
// append([]byte(nil), ...) copy. Buffers start at MaxDatagram-friendly size
// and grow in place for jumbo datagrams.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 2048)
	return &b
}}

// Receiver drains a datagram source into a Store.
type Receiver struct {
	db       Store
	direct   ShardedStore // non-nil when writer shards map 1:1 onto store shards
	shards   []chan pkt
	stats    *Stats
	batchMax int
	readBuf  int
	readers  int
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
	// Depth is the total buffered capacity across all shard channels
	// (default 65536) — the paper's "buffered channel of the receiver
	// server", split evenly among writers.
	Depth int
	// BatchMax bounds how many messages are folded into one DB insert
	// (default 256).
	BatchMax int
	// Readers is the number of goroutines draining the UDP socket
	// (default min(GOMAXPROCS, 4); channel mode always uses one forwarder).
	Readers int
	// Writers is the number of writer shards inserting into the database
	// (default min(GOMAXPROCS, 4): sharding buys parallel parse+insert, so
	// extra shards on a single-core host would only add scheduling
	// overhead). Datagrams are partitioned by hash(JobID, Host), so
	// sharding never splits one job's messages across writers: within one
	// (JobID, Host), dispatch order is storage order. Global insertion
	// order across jobs is scheduler-dependent once Writers > 1, and with
	// multiple UDP Readers the socket→dispatch handoff itself can reorder,
	// just like UDP transit — consolidation never depends on either.
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
	if o.Readers <= 0 {
		o.Readers = runtime.GOMAXPROCS(0)
		if o.Readers > 4 {
			o.Readers = 4
		}
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
		readers:  opts.Readers,
		view:     opts.View,
		shards:   make([]chan pkt, opts.Writers),
	}
	if r.view != nil {
		r.selfIdx = r.view.SelfIndex()
	}
	if r.readBuf <= 0 {
		r.readBuf = 4 << 20
	}
	per := opts.Depth / opts.Writers
	for i := range r.shards {
		r.shards[i] = make(chan pkt, per)
	}
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
	if uc, ok := conn.(*net.UDPConn); ok {
		// Best-effort: the kernel silently caps at net.core.rmem_max.
		_ = uc.SetReadBuffer(r.readBuf)
	}
	r.conn = conn
	r.sourceOpenNano.Store(time.Now().UnixNano())
	for i := 0; i < r.readers; i++ {
		r.readerWG.Add(1)
		go r.readLoop(conn)
	}
	r.startWriters()
	return conn.LocalAddr().String(), nil
}

// AttachChannel consumes datagrams from a channel source (wire.ChanTransport)
// instead of a socket — the deterministic in-process mode used by tests and
// simulations. Unlike the UDP path, the forwarder applies backpressure
// instead of dropping: the source channel already models the lossy socket
// buffer, so a second drop point would double-count loss.
func (r *Receiver) AttachChannel(src <-chan []byte) {
	r.sourceOpenNano.Store(time.Now().UnixNano())
	r.readerWG.Add(1)
	go func() {
		defer r.readerWG.Done()
		for d := range src {
			r.stats.Received.Add(1)
			r.lastRecvNano.Store(time.Now().UnixNano())
			r.dispatch(pkt{data: d}, true)
		}
	}()
	r.startWriters()
}

func (r *Receiver) readLoop(conn net.PacketConn) {
	defer r.readerWG.Done()
	scratch := make([]byte, 64<<10) // one max-size UDP datagram
	for {
		n, _, err := conn.ReadFrom(scratch)
		if err != nil {
			if r.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient socket error: keep serving (graceful failure).
			continue
		}
		r.ingest(scratch[:n], false)
	}
}

// ingest copies one received datagram into a pooled buffer, counts it, and
// dispatches it to its shard — the shared post-ReadFrom path of the reader
// and shutdown-drain loops.
func (r *Receiver) ingest(d []byte, block bool) {
	r.stats.Received.Add(1)
	r.lastRecvNano.Store(time.Now().UnixNano())
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < len(d) {
		*bp = make([]byte, len(d))
	}
	data := (*bp)[:len(d)]
	copy(data, d)
	r.dispatch(pkt{data: data, buf: bp}, block)
}

// dispatch applies membership admission and routes a datagram to its writer
// shard — both decisions come from one wire.PartitionFields scan of the
// header, but from independent hashes (rendezvous scores vs the low-bits
// shard modulo of wire.PartitionHash), so a member's admitted slice still
// spreads over all its writer and store shards. A datagram another member
// owns is counted Rejected and discarded; one whose header cannot be scanned
// bypasses admission and lands on shard 0, where Parse counts it as
// malformed — every member of a roster agrees on that, so a malformed
// datagram is never double-ingested either. Single-shard receivers without
// a view skip the header scan entirely (its result would be unused). Blocking mode (channel
// transport) applies backpressure; non-blocking mode (UDP)
// drops-and-counts like the kernel would.
func (r *Receiver) dispatch(p pkt, block bool) {
	idx := 0
	if r.view != nil || len(r.shards) > 1 {
		if job, host, ok := wire.PartitionFields(p.data); ok {
			if r.view != nil {
				// Membership admission: accept exactly the keys this member
				// owns under the current live view; when ownership arrived by
				// failover (the key's rank-0 member is down), count it.
				rank0, owner := r.view.Route(job, host)
				if owner != r.selfIdx {
					r.stats.Rejected.Add(1)
					release(p)
					return
				}
				if rank0 != r.selfIdx {
					r.stats.AcceptedFailover.Add(1)
				}
			}
			if len(r.shards) > 1 {
				idx = int(wire.PartitionHash(job, host) % uint64(len(r.shards)))
			}
		}
	}
	p.enq = time.Now().UnixNano()
	sh := r.shards[idx]
	if block {
		sh <- p
		return
	}
	select {
	case sh <- p:
	default:
		r.stats.Dropped.Add(1)
		release(p)
	}
}

// release returns a pooled datagram buffer for reuse.
func release(p pkt) {
	if p.buf != nil {
		bufPool.Put(p.buf)
	}
}

func (r *Receiver) writeLoop(idx int, ch chan pkt) {
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
	add := func(p pkt) {
		// One clock read ends the queue-wait stage and starts parse.
		parseStart := time.Now()
		r.mx.queueWaitNS.Record(parseStart.UnixNano() - p.enq)
		var m wire.Message
		err := dec.Decode(p.data, &m)
		r.mx.parseNS.Since(parseStart)
		release(p) // the decoder copied what it needs; recycle immediately
		if err != nil {
			r.stats.Malformed.Add(1)
			return
		}
		batch = append(batch, m)
	}
	for p := range ch {
		add(p)
		// Opportunistically drain whatever is already queued, then flush —
		// batches form under load, latency stays low when idle.
	drain:
		for len(batch) < r.batchMax {
			select {
			case p, ok := <-ch:
				if !ok {
					flush()
					return
				}
				add(p)
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
			// Wake readers blocked in ReadFrom; they observe closing and
			// exit, leaving the queued datagrams for the drain below.
			_ = r.conn.SetReadDeadline(time.Now())
			r.readerWG.Wait()
			r.drainSocket()
			r.closeErr = r.conn.Close()
		} else {
			r.readerWG.Wait()
		}
		r.startWriters() // a never-started receiver still closes cleanly
		for _, sh := range r.shards {
			close(sh)
		}
		r.writerWG.Wait()
	})
	return r.closeErr
}

// drainSocket empties the kernel socket buffer into the shards: it reads
// until the socket stays idle for drainIdle (or drainCap total, should a
// sender still be transmitting), dispatching with backpressure so nothing
// read here is dropped.
func (r *Receiver) drainSocket() {
	const (
		drainIdle = 50 * time.Millisecond
		drainCap  = 2 * time.Second
	)
	deadline := time.Now().Add(drainCap)
	scratch := make([]byte, 64<<10)
	for time.Now().Before(deadline) {
		if err := r.conn.SetReadDeadline(time.Now().Add(drainIdle)); err != nil {
			return
		}
		n, _, err := r.conn.ReadFrom(scratch)
		if err != nil {
			return // idle (deadline exceeded) or socket gone: drained
		}
		r.ingest(scratch[:n], true)
	}
}

var _ ShardedStore = (*sirendb.DB)(nil)
