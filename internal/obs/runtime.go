package obs

import "runtime/metrics"

// RegisterRuntime registers three gauges over the Go runtime's own
// accounting, read through runtime/metrics at scrape time: live heap bytes,
// completed GC cycles, and total GC pause. A serving process calls it once,
// on the registry its /metrics endpoint serves.
func (r *Registry) RegisterRuntime() {
	r.GaugeFunc("siren_go_heap_live_bytes", "heap bytes marked live by the last completed GC cycle", func() int64 {
		return int64(readRuntime("/gc/heap/live:bytes")[0].Value.Uint64())
	})
	r.GaugeFunc("siren_go_gc_cycles", "GC cycles completed since the process started", func() int64 {
		return int64(readRuntime("/gc/cycles/total:gc-cycles")[0].Value.Uint64())
	})
	// The runtime charges each stop-the-world pause as GOMAXPROCS times its
	// wall time; dividing back gives the pause itself while GOMAXPROCS is
	// fixed, as it is for the life of a siren process.
	r.GaugeFunc("siren_go_gc_pause_ns", "stop-the-world GC pause time since the process started", func() int64 {
		s := readRuntime("/cpu/classes/gc/pause:cpu-seconds", "/sched/gomaxprocs:threads")
		return int64(s[0].Value.Float64() / float64(s[1].Value.Uint64()) * 1e9)
	})
}

// readRuntime reads the named runtime/metrics samples.
func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}
