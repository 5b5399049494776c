package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"siren/internal/catalog"
	"siren/internal/obs"
	"siren/internal/receiver"
	"siren/internal/server"
	"siren/internal/sirendb"
)

// sut is the system under test of one workload: real binaries as child
// processes in the untraced run, the same layers assembled in-process —
// with a span recorder at every boundary — in the traced run.
type sut interface {
	udpAddr() string // "" when the system takes no datagrams
	apiAddr() string
	awaitReady(probe func() bool) error
	usage() (cpu time.Duration, peakRSSMB float64, err error)
	stop() error
}

type sutKind int

const (
	receiverLive    sutKind = iota // siren-receiver -serve-addr -refresh-interval 1s -seal-interval 5s
	receiverRestart                // the same without sealing: a restart must not reshape the store it measures
	serveReadonly                  // siren-serve -readonly
)

const (
	refreshInterval = time.Second
	sealInterval    = 5 * time.Second
)

// childSUT is a real binary running as a child process.
type childSUT struct {
	*child
	udp, api string
}

func (s *childSUT) udpAddr() string { return s.udp }
func (s *childSUT) apiAddr() string { return s.api }

func (h *hygiene) startChildSUT(bins binaries, kind sutKind, store string) (*childSUT, error) {
	api, err := freePort("tcp")
	if err != nil {
		return nil, err
	}
	s := &childSUT{api: api}
	if kind == serveReadonly {
		s.child, err = h.startChild(bins.serve, "-readonly", "-db", store, "-addr", api)
		return s, err
	}
	if s.udp, err = freePort("udp"); err != nil {
		return nil, err
	}
	args := []string{"-addr", s.udp, "-db", store, "-stats-interval", "0",
		"-serve-addr", api, "-refresh-interval", refreshInterval.String()}
	if kind == receiverLive {
		args = append(args, "-seal-interval", sealInterval.String())
	}
	s.child, err = h.startChild(bins.receiver, args...)
	return s, err
}

// inprocSUT is the traced assembly: the layers' public functions wired as
// cmd/siren-receiver (or cmd/siren-serve) wires them, every call across a
// boundary recorded by the benchmark's own wrappers.
type inprocSUT struct {
	rec *recorder
	db  *sirendb.DB    // receiver kinds
	set *sirendb.DBSet // serveReadonly
	rcv *receiver.Receiver
	tc  *tracedCatalog
	hs  *http.Server
	ln  net.Listener
	udp string

	stopTick chan struct{}
	tickWG   sync.WaitGroup

	// Sampled every 10 ms while the receiver runs.
	queueDepthMax int
	syncDur       time.Duration
	final         receiver.StatsSnapshot
}

func startInprocSUT(rec *recorder, kind sutKind, store string) (_ *inprocSUT, err error) {
	s := &inprocSUT{rec: rec, stopTick: make(chan struct{})}
	defer func() {
		if err != nil {
			s.closeAll()
		}
	}()
	var reg *obs.Registry
	if kind == serveReadonly {
		reg = obs.NewRegistry("siren-serve")
		rec.timed(spanOpen, func() int {
			s.set, err = sirendb.OpenSet([]string{store}, sirendb.Options{ReadOnly: true})
			return 0
		})
		if err != nil {
			return nil, err
		}
		s.tc = newTracedCatalog(rec, catalog.SetSource(s.set), catalog.Options{Metrics: reg})
	} else {
		reg = obs.NewRegistry("siren-receiver")
		shards := receiver.Options{}.ResolvedWriters()
		rec.timed(spanOpen, func() int {
			s.db, err = sirendb.OpenOptions(store, sirendb.Options{Shards: shards, Metrics: reg})
			return 0
		})
		if err != nil {
			return nil, err
		}
		s.rcv = receiver.New(&tracedStore{db: s.db, rec: rec}, receiver.Options{Metrics: reg})
		if s.udp, err = s.rcv.ListenUDP("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.tc = newTracedCatalog(rec, catalog.StoreSource(s.db), catalog.Options{Metrics: reg})
		s.every(refreshInterval, func() { s.tc.refresh() })
		if kind == receiverLive {
			s.every(sealInterval, func() {
				rec.timed(spanSeal, func() int {
					if err := s.db.Seal(); err != nil && !errors.Is(err, sirendb.ErrClosed) {
						fmt.Println("bench: seal:", err)
					}
					return 0
				})
			})
		}
		s.every(10*time.Millisecond, func() { s.queueDepthMax = max(s.queueDepthMax, s.rcv.QueueDepth()) })
	}
	// Both binaries build the first generation before they listen.
	s.tc.refresh()
	s.hs = &http.Server{Handler: traceHandler(rec, server.NewWithMetrics(s.tc.cat, reg).Handler())}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go s.hs.Serve(s.ln)
	return s, nil
}

// every runs fn on the benchmark's own ticker until stop.
func (s *inprocSUT) every(period time.Duration, fn func()) {
	s.tickWG.Add(1)
	go func() {
		defer s.tickWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-s.stopTick:
				return
			}
		}
	}()
}

func (s *inprocSUT) udpAddr() string { return s.udp }
func (s *inprocSUT) apiAddr() string { return s.ln.Addr().String() }

func (s *inprocSUT) awaitReady(probe func() bool) error {
	deadline := time.Now().Add(readyTimeout)
	for !probe() {
		if time.Now().After(deadline) {
			s.closeAll()
			return fmt.Errorf("in-process assembly not ready after %s", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (s *inprocSUT) usage() (time.Duration, float64, error) { return selfUsage() }

// stop mirrors the binaries' SIGTERM path: drain the receiver, stop the
// background work, close the store.
func (s *inprocSUT) stop() error {
	var errs []error
	if s.rcv != nil {
		errs = append(errs, s.rcv.Close())
		s.final = s.rcv.Stats().Snapshot()
		s.syncDur = s.rec.timed(spanSync, func() int {
			errs = append(errs, s.db.Sync())
			return 0
		})
	}
	return errors.Join(append(errs, s.closeAll())...)
}

func (s *inprocSUT) closeAll() error {
	var errs []error
	if s.stopTick != nil {
		close(s.stopTick)
		s.tickWG.Wait()
		s.stopTick = nil
	}
	if s.rcv != nil {
		errs = append(errs, s.rcv.Close())
	}
	if s.hs != nil && s.ln != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		errs = append(errs, s.hs.Shutdown(ctx))
		cancel()
	}
	if s.db != nil {
		errs = append(errs, s.db.Close())
	}
	if s.set != nil {
		errs = append(errs, s.set.Close())
	}
	return errors.Join(errs...)
}

// runtimeSample is the Go runtime's account of the traced window.
type runtimeSample struct {
	gcCycles     uint32
	gcPauseMS    float64
	heapPeakMB   float64
	allocMBTotal float64
}

// sampleRuntime watches the heap until stop is closed and reports the
// deltas over that time.
func sampleRuntime(stop <-chan struct{}) runtimeSample {
	var first, ms runtime.MemStats
	runtime.ReadMemStats(&first)
	var peak uint64
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for done := false; !done; {
		select {
		case <-t.C:
		case <-stop:
			done = true
		}
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapInuse)
	}
	return runtimeSample{
		gcCycles:     ms.NumGC - first.NumGC,
		gcPauseMS:    float64(ms.PauseTotalNs-first.PauseTotalNs) / 1e6,
		heapPeakMB:   float64(peak) / (1 << 20),
		allocMBTotal: float64(ms.TotalAlloc-first.TotalAlloc) / (1 << 20),
	}
}
