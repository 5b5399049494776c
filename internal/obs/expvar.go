// Expvar compat bridge: the repo's processes already expose an unregistered
// expvar.Map on /debug/vars, and ops tooling scrapes that JSON. Expvar
// renders the whole registry as one expvar.Var so a single
// vars.Set("siren_metrics", reg.Expvar()) keeps both worlds in sync without
// double instrumentation. Nothing here touches the global expvar registry.

package obs

import (
	"expvar"
)

// Expvar returns an expvar.Var whose value is the registry as a JSON
// object: counters and gauges as integers, histograms as
// {"count","sum","max","p50","p90","p99"} summaries (percentiles in the
// sample unit, nanoseconds for latencies). Labeled children are keyed as
// name{k="v",...} — the same child naming the Prometheus exposition uses.
func (r *Registry) Expvar() expvar.Var {
	return expvar.Func(func() any {
		out := make(map[string]any)
		for f := range r.families() {
			for e := range f.entries() {
				key := f.name + renderLabels(e.labels, "", 0)
				switch {
				case e.counter != nil:
					out[key] = e.counter.Value()
				case e.gfunc != nil:
					out[key] = e.gfunc()
				case e.hist != nil:
					s := e.hist.Snapshot()
					out[key] = map[string]any{
						"count": s.Count,
						"sum":   s.Sum,
						"max":   s.Max,
						"p50":   s.P50,
						"p90":   s.P90,
						"p99":   s.P99,
					}
				}
			}
		}
		return out
	})
}
