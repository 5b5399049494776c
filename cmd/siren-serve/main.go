// Command siren-serve is the standalone recognition service: it opens the
// database(s) of a finished campaign, builds the fingerprint catalog, and
// answers identification queries over the HTTP JSON API — the online form
// of the recognition the paper runs as a batch similarity search.
//
// Usage:
//
//	siren-serve -db siren.wal [-addr 127.0.0.1:8899] [-readonly] [-workers N] [-pprof]
//	siren-serve -db 'siren-0.wal,siren-1.wal,siren-2.wal'   # multi-receiver
//	siren-serve -db 'campaign/siren-*.wal*'                 # glob over members
//
// -db takes the same grammar as siren-analyze: a comma-separated list of WAL
// base paths, each element optionally a glob over the stores' on-disk
// artifacts. The members of an N-receiver deployment — here a static
// three-way roster, one nobody probes because no member has an @health
// address —
//
//	siren-receiver -db siren-0.wal -member-id r0 -roster 'r0=0.0.0.0:8787,r1=0.0.0.0:8788,r2=0.0.0.0:8789'
//	siren-receiver -db siren-1.wal -member-id r1 -roster 'r0=0.0.0.0:8787,r1=0.0.0.0:8788,r2=0.0.0.0:8789'
//	siren-receiver -db siren-2.wal -member-id r2 -roster 'r0=0.0.0.0:8787,r1=0.0.0.0:8788,r2=0.0.0.0:8789'
//
// are served as one merged catalog: siren-serve -db 'siren-*.wal*' answers
// exactly what a single receiver ingesting the whole campaign would. Every
// member's advisory lock is held for the lifetime of the server, so the
// receivers must have exited first; to query a store that is still
// ingesting, use siren-receiver -serve-addr instead.
//
// -readonly opens every member with a shared lock instead of the exclusive
// one: several siren-serve processes (or any other readers) can serve the
// same campaign side by side, and none of them can mutate it. Writers are
// still excluded for as long as any reader holds the lock. No store state
// needs a writable open first: a crash-interrupted seal is rolled forward by
// filtering its WAL residue, which a read-only open does too.
//
// API: POST /api/v1/identify, GET /api/v1/jobs, /api/v1/clusters?threshold=,
// /api/v1/report, /api/v1/stats, /healthz (see internal/server). GET /metrics
// serves the process's telemetry — per-endpoint latency histograms and the
// catalog's refresh timings — in Prometheus text format, and -pprof adds the
// net/http/pprof profiling handlers under /debug/pprof/ on the same listener.
//
// The catalog is built once at start-up: both open modes hold a lock that
// excludes writers, so the served set cannot change.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"siren/internal/catalog"
	"siren/internal/obs"
	"siren/internal/server"
	"siren/internal/sirendb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "siren-serve:", err)
		os.Exit(1)
	}
}

// run owns the process lifecycle so the deferred closes — the member locks,
// the listener drain — fire on error paths too.
func run() (err error) {
	dbSpec := flag.String("db", "siren.wal", "WAL file(s) to serve: comma-separated base paths, each optionally a glob")
	addr := flag.String("addr", "127.0.0.1:8899", "HTTP listen address of the query API")
	workers := flag.Int("workers", 0, "streaming-consolidation workers per refresh (0 = one per store shard)")
	readonly := flag.Bool("readonly", false, "open every member with a shared lock: concurrent serve processes may share the campaign, writers stay excluded")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the query listener")
	flag.Parse()

	paths, err := sirendb.ResolveSetPaths(*dbSpec)
	if err != nil {
		return err
	}
	openStart := time.Now()
	set, err := sirendb.OpenSet(paths, sirendb.Options{ReadOnly: *readonly})
	if err != nil {
		return err
	}
	opened := time.Since(openStart).Round(100 * time.Microsecond) // run indexes + WAL replay; sub-ms when sealed
	// Backstop for early-return paths; Close is idempotent, so the explicit
	// close at the end of the drain sequence makes this a no-op. A failing
	// member close must surface in run's error, not vanish.
	defer func() { err = errors.Join(err, set.Close()) }()

	// One process registry: the catalog's refresh instruments and the
	// server's per-endpoint histograms share it, so GET /metrics covers both.
	reg := obs.NewRegistry("siren-serve")
	cat := catalog.New(catalog.SetSource(set), catalog.Options{Workers: *workers, Metrics: reg})
	rs := cat.Refresh()
	fmt.Printf("siren-serve: catalog generation %d: %d jobs, %d processes, %d fingerprints (store opened in %s, %s from %d members)\n",
		rs.Gen, rs.Jobs, cat.Generation().Stats.Processes, cat.Generation().Index.Len(), opened, rs.BuildLine(), len(paths))

	srv := server.NewWithMetrics(cat, reg)
	// The query API hangs off an outer mux so profiling can ride the same
	// listener; the pprof handlers are registered one by one — never via the
	// package's blank-import side effect, which would publish on
	// http.DefaultServeMux (the nodefaultmux contract).
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	hs := &http.Server{Handler: mux}
	// Registered before the listener exists: a SIGTERM that follows the very
	// first answer must find the handler installed, or the default action
	// kills the process without the drain below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("siren-serve: serving on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-sig:
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Println("siren-serve: drained")
	return set.Close()
}
