// Telemetry bindings for the prober: probe round-trip latency and failure
// counting. A RetryTransport registers its counters in NewRetryTransport.

package membership

import "siren/internal/obs"

// InstrumentWith registers the prober's instruments in reg: a probe RTT
// histogram (successful probes only — a timeout would dominate the tail with
// the configured deadline, not a measurement) and a counter of failed
// probes. Call before Start to share reg; Start registers a prober that
// was not given one into a private registry, so a probing prober is always
// instrumented.
func (p *Prober) InstrumentWith(reg *obs.Registry) {
	p.rttNS = reg.Histogram("siren_probe_rtt_ns", "membership liveness probe round-trip time (successful probes)")
	p.probeFails = reg.Counter("siren_probe_failures_total", "membership liveness probes that failed at the transport level")
}
