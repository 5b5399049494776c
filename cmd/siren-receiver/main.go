// Command siren-receiver is the standalone UDP message receiver: it binds a
// socket, funnels datagrams through hash-partitioned writer shards into the
// WAL-backed database, logs a periodic stats line, and reports final
// statistics on shutdown (SIGINT/SIGTERM) — the Go receiver of the paper's
// architecture (Figure 1), scaled out per DESIGN.md.
//
// Usage:
//
//	siren-receiver [-addr 127.0.0.1:8787] [-db siren.wal]
//	               [-member-id ID -roster 'id=udp[@health],...']
//	               [-writers M] [-depth D] [-batch B]
//	               [-sync-interval 100ms]
//	               [-rcvbuf BYTES] [-stats-interval 10s]
//	               [-serve-addr HOST:PORT] [-refresh-interval 5s]
//	               [-seal-interval 0] [-retain 0] [-pprof]
//
// The -expvar-addr mux additionally serves GET /metrics — every tier's
// latency histograms and counters (ingest stages, WAL fsync, seal phases,
// catalog refresh, probe RTT) in Prometheus text format — and, with -pprof,
// the net/http/pprof profiling handlers under /debug/pprof/.
//
// -seal-interval periodically freezes the WAL head into immutable sorted
// run files (sirendb.Seal): restart replay then costs only the rows since
// the last seal, and the runs reopen in O(index). -retain N drops sealed
// generations older than the newest N after each seal — the storage
// retention knob of a long campaign (0 keeps everything).
//
// -serve-addr starts the online recognition service over the live store:
// the HTTP JSON query API of internal/server (POST /api/v1/identify,
// GET /api/v1/jobs, /api/v1/clusters, /api/v1/report, /api/v1/stats,
// /healthz), backed by a fingerprint catalog refreshed incrementally every
// -refresh-interval while ingest keeps running. Queries answer from the
// last published catalog generation — at most one refresh interval behind
// the ingest stream, never blocking it.
//
// The listen address defaults to loopback — safe on a login node, where only
// local collectors (or an SSH-forwarded port) can reach the socket. A real
// deployment accepting datagrams from compute nodes binds a routable
// interface explicitly, e.g. -addr 0.0.0.0:8787.
//
// Multi-receiver deployment (DESIGN.md §11): N processes share one campaign
// by running each with its own database, a member ID, and the same roster.
// A static three-way split is a roster without health addresses — nobody
// probes it, so ownership never moves:
//
//	siren-receiver -db siren-0.wal -member-id r0 -roster 'r0=0.0.0.0:8787,r1=0.0.0.0:8788,r2=0.0.0.0:8789'
//	siren-receiver -db siren-1.wal -member-id r1 -roster 'r0=0.0.0.0:8787,r1=0.0.0.0:8788,r2=0.0.0.0:8789'
//	siren-receiver -db siren-2.wal -member-id r2 -roster 'r0=0.0.0.0:8787,r1=0.0.0.0:8788,r2=0.0.0.0:8789'
//
// Each process admits only the (JOBID, HOST) keys it owns under rendezvous
// hashing over the live members and counts the rest as rejected, so senders
// may spray or broadcast across all N ports with no double-ingest. Analysis
// merges the member databases back together:
// siren-analyze -db 'siren-0.wal,siren-1.wal,siren-2.wal'.
//
// Giving members health addresses makes the roster failover-capable:
//
//	siren-receiver -db siren-0.wal -member-id r0 \
//	    -roster 'r0=127.0.0.1:8787@127.0.0.1:9787,r1=127.0.0.1:8788@127.0.0.1:9788,r2=127.0.0.1:8789@127.0.0.1:9789'
//
// When one receiver dies its keys reassign to survivors with no operator
// action (admitted keys whose all-live owner was the dead member are counted
// accepted_failover). -addr and -expvar-addr default from the member's
// roster entry (UDP@health); the health side of the stats mux serves
// /healthz (liveness + ingest-stall, see -health-stall), GET /membership
// (the live view as JSON), and POST /membership/down?id=X (confirm-probed
// death reports from senders). A background prober
// (-probe-interval/-probe-timeout) also detects peer deaths directly.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"siren/internal/catalog"
	"siren/internal/membership"
	"siren/internal/obs"
	"siren/internal/receiver"
	"siren/internal/server"
	"siren/internal/sirendb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "siren-receiver:", err)
		os.Exit(1)
	}
}

// run owns the whole process lifecycle so every defer — the store's final
// fsync-and-close, the receiver drain, the expvar listener — fires on the
// error paths too. The old main called os.Exit from a fatal() helper, which
// skipped deferred closes: a ListenUDP failure after a successful open
// leaked the group-commit syncers and bypassed the final WAL fsync.
func run() (err error) {
	addr := flag.String("addr", "127.0.0.1:8787", "UDP listen address (loopback by default; bind 0.0.0.0 to accept remote collectors)")
	dbPath := flag.String("db", "siren.wal", "WAL file for the message store")
	writers := flag.Int("writers", 0, "writer shards, hash-partitioned by (JobID, Host) (0 = default)")
	depth := flag.Int("depth", 0, "total buffered-channel capacity across shards (0 = default)")
	batch := flag.Int("batch", 0, "max messages per database insert batch (0 = default)")
	rcvbuf := flag.Int("rcvbuf", 0, "requested SO_RCVBUF in bytes (0 = default 4 MiB)")
	syncEvery := flag.Duration("sync-interval", sirendb.DefaultSyncInterval,
		"group-commit fsync latency bound (negative = fsync every batch)")
	statsEvery := flag.Duration("stats-interval", 10*time.Second, "period of the stats log line (0 disables)")
	expvarAddr := flag.String("expvar-addr", "", "HTTP listen address exporting receiver+store stats as expvar under /debug/vars (\"\" disables; defaults to the roster health address in membership mode)")
	memberID := flag.String("member-id", "", "this receiver's ID in -roster (enables membership-table admission)")
	rosterSpec := flag.String("roster", "", "campaign roster as \"id=udp@health,...\" (health optional); requires -member-id")
	probeEvery := flag.Duration("probe-interval", time.Second, "period of background peer health probes in membership mode (<= 0 disables)")
	probeTimeout := flag.Duration("probe-timeout", 500*time.Millisecond, "timeout of each peer health probe and of /membership/down confirm-probes")
	healthStall := flag.Duration("health-stall", 0, "make /healthz report 503 if the UDP socket is open but no datagram arrived for this long (0 disables stall detection)")
	sealEvery := flag.Duration("seal-interval", 0, "period of sealing the WAL head into immutable run files (0 disables; bounds restart replay to the rows since the last seal)")
	retain := flag.Int("retain", 0, "sealed generations to keep after each seal; older runs are deleted (0 keeps everything; requires -seal-interval)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the -expvar-addr mux")
	serveAddr := flag.String("serve-addr", "", "HTTP listen address of the online recognition API over the live store (\"\" disables)")
	refreshEvery := flag.Duration("refresh-interval", 5*time.Second, "period of incremental catalog refresh behind -serve-addr (<= 0 disables: the served catalog then never sees ingested rows)")
	flag.Parse()

	if *retain < 0 {
		return errors.New("-retain must be >= 0")
	}
	if *retain > 0 && *sealEvery <= 0 {
		return errors.New("-retain needs -seal-interval: generations only accumulate when sealing runs")
	}

	// Membership mode: rendezvous admission over the roster's live members;
	// without a roster the receiver admits everything.
	var view *membership.View
	if (*memberID != "") != (*rosterSpec != "") {
		return errors.New("-member-id and -roster must be set together")
	}
	if *rosterSpec != "" {
		table, err := membership.ParseRoster(*rosterSpec)
		if err != nil {
			return err
		}
		view, err = membership.NewView(table, *memberID)
		if err != nil {
			return err
		}
		// Default the listen addresses from this member's roster entry so the
		// roster is the single source of truth for the deployment layout;
		// explicit flags still win.
		self := table.Member(view.SelfIndex())
		setFlags := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
		if !setFlags["addr"] {
			*addr = self.UDPAddr
		}
		if !setFlags["expvar-addr"] && self.HealthAddr != "" {
			*expvarAddr = self.HealthAddr
		}
	}

	if *pprofOn && *expvarAddr == "" {
		return errors.New("-pprof needs -expvar-addr: the profiling handlers live on the stats mux")
	}

	// One process-wide metrics registry shared by every tier — the store's
	// WAL/seal histograms, the receiver's pipeline stages, the catalog's
	// refresh timings, the server's per-endpoint latencies and the prober's
	// RTTs all register here, so a single GET /metrics scrape covers the
	// whole pipeline (DESIGN.md §13).
	reg := obs.NewRegistry("siren-receiver")

	// One store shard (and WAL segment) per writer keeps the writer→store
	// mapping 1:1, so every batch lands in its store shard without
	// re-partitioning (receiver.ShardedStore).
	shards := receiver.Options{Writers: *writers}.ResolvedWriters()
	openStart := time.Now()
	db, err := sirendb.OpenOptions(*dbPath, sirendb.Options{Shards: shards, SyncInterval: *syncEvery, Metrics: reg})
	if err != nil {
		return err
	}
	opened := time.Since(openStart).Round(100 * time.Microsecond) // run indexes + WAL replay; sub-ms when sealed
	// Backstop for early-return paths; Close is idempotent, so the happy
	// path's explicit shutdown below makes this a no-op. A failed WAL close
	// here is lost durability and must surface in run's error.
	defer func() { err = errors.Join(err, db.Close()) }()
	rcv := receiver.New(db, receiver.Options{
		Depth:      *depth,
		BatchMax:   *batch,
		Writers:    *writers,
		ReadBuffer: *rcvbuf,
		View:       view,
		Metrics:    reg,
	})
	defer func() { err = errors.Join(err, rcv.Close()) }()
	// Registered before any socket opens: a SIGTERM that follows the very
	// first datagram or HTTP answer must find the handler installed, or the
	// default action kills the process without the drain at the end of run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	bound, err := rcv.ListenUDP(*addr)
	if err != nil {
		return err
	}
	slice := "all keys"
	if view != nil {
		slice = fmt.Sprintf("member %s of %d", *memberID, view.Table().Len())
	}
	fmt.Printf("siren-receiver: listening on %s (%s), storing to %s (%d shards, %d replayed rows, %d corrupt skipped, opened in %s)\n",
		bound, slice, *dbPath, db.StoreShards(), db.Count(), db.CorruptRecords(), opened)

	// Telemetry: the same counters the periodic log line prints, plus the
	// store's WAL/durability state, as machine-readable expvar JSON — the
	// backpressure counters (Dropped, Rejected, InsertErrors, InsertLost)
	// are the ones an operator alerts on. The vars live in a local map
	// served by a dedicated mux + http.Server: nothing touches the global
	// expvar registry or http.DefaultServeMux (whose Publish/Handle calls
	// panic on re-registration — two receivers embedded in one test process
	// used to collide), and Shutdown on exit drains the listener cleanly
	// instead of abandoning in-flight scrapes.
	if *expvarAddr != "" {
		vars := new(expvar.Map).Init()
		vars.Set("siren_receiver", expvar.Func(func() any { return rcv.Stats().Snapshot() }))
		vars.Set("siren_store", expvar.Func(func() any { return db.Stats() }))
		vars.Set("siren_metrics", reg.Expvar())
		// Mirror the two vars the expvar package itself publishes, so
		// scrapes of the old DefaultServeMux endpoint (heap/GC dashboards
		// read memstats) keep working against the dedicated mux.
		for _, name := range []string{"cmdline", "memstats"} {
			if v := expvar.Get(name); v != nil {
				vars.Set(name, v)
			}
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			io.WriteString(w, vars.String())
		})
		mux.Handle("/metrics", reg.Handler())
		// Profiling rides the same dedicated mux, registered handler by
		// handler — never via the package's blank-import side effect, which
		// would publish on http.DefaultServeMux (the nodefaultmux contract).
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		// Liveness + ingest-stall for balancers and the failover protocol's
		// confirm-probes: any answer (even 503 stalled) means the process is
		// alive; only a transport error reads as death.
		mux.Handle("/healthz", rcv.HealthHandler(*healthStall))
		if view != nil {
			mux.Handle("/membership", view.StatusHandler())
			mux.Handle("/membership/down", view.DownHandler(*probeTimeout))
		}
		hs := &http.Server{Handler: mux}
		ln, err := net.Listen("tcp", *expvarAddr)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
		}()
		fmt.Printf("siren-receiver: expvar on http://%s/debug/vars\n", ln.Addr())
		go func() {
			if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "siren-receiver: expvar server:", err)
			}
		}()
	}

	// Peer failure detection: without it a receiver only learns of a death
	// from sender /membership/down reports; broadcast campaigns have no
	// sender-side dispatch, so the prober keeps admission converging anyway.
	if view != nil && *probeEvery > 0 {
		prober := &membership.Prober{
			View:     view,
			Interval: *probeEvery,
			Timeout:  *probeTimeout,
			OnDown: func(_ int, m membership.Member) {
				fmt.Printf("siren-receiver: member %s (%s) marked down by health probe\n", m.ID, m.UDPAddr)
			},
		}
		prober.InstrumentWith(reg)
		prober.Start()
		defer prober.Stop()
	}

	// Online recognition over the live store: an incrementally refreshed
	// fingerprint catalog behind the HTTP query API. Refreshes cost
	// O(changed jobs) against the snapshot watermark; queries read the last
	// published generation and never block ingest.
	if *serveAddr != "" {
		cat := catalog.New(catalog.StoreSource(db), catalog.Options{Metrics: reg})
		rs := cat.Refresh()
		fmt.Printf("siren-receiver: catalog generation %d: %d jobs, %d fingerprints (%s)\n",
			rs.Gen, rs.Jobs, cat.Generation().Index.Len(), rs.BuildLine())
		srv := server.NewWithMetrics(cat, reg)
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		fmt.Printf("siren-receiver: serving recognition API on http://%s\n", ln.Addr())
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "siren-receiver: recognition server:", err)
			}
		}()
		if *refreshEvery > 0 {
			refreshStop := make(chan struct{})
			defer close(refreshStop)
			go func() {
				t := time.NewTicker(*refreshEvery)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						cat.Refresh()
					case <-refreshStop:
						return
					}
				}
			}()
		}
	}

	stop := make(chan struct{})
	defer close(stop)

	// Periodic sealing: freeze the WAL head into run files so a restart
	// replays only the tail, then apply generation retention. A seal error
	// is operator-visible but not fatal — the store keeps ingesting from
	// the WAL exactly as without sealing (a *poisoned* store surfaces
	// through insert errors in the receiver stats regardless).
	if *sealEvery > 0 {
		go func() {
			t := time.NewTicker(*sealEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := db.Seal(); err != nil {
						if errors.Is(err, sirendb.ErrClosed) {
							return
						}
						fmt.Fprintln(os.Stderr, "siren-receiver: seal:", err)
						continue
					}
					if *retain > 0 {
						if n, err := db.RetainSealedGenerations(*retain); err != nil {
							fmt.Fprintln(os.Stderr, "siren-receiver: retention:", err)
						} else if n > 0 {
							fmt.Printf("siren-receiver: retention dropped %d sealed run(s), keeping %d generation(s)\n", n, *retain)
						}
					}
				case <-stop:
					return
				}
			}
		}()
	}

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Printf("siren-receiver: %s rows=%d\n", rcv.StatsLine(), db.Count())
				case <-stop:
					return
				}
			}
		}()
	}

	<-sig

	if err := rcv.Close(); err != nil {
		return err
	}
	fmt.Printf("siren-receiver: %s rows=%d\n", rcv.StatsLine(), db.Count())
	return db.Close()
}
