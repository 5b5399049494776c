// Telemetry bindings for the membership tier: probe round-trip latency and
// failure counting on the Prober, and counter bridges exposing a
// RetryTransport's existing send accounting through an obs registry.

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

// InstrumentWith bridges the transport's send counters into reg so they ride
// the /metrics exposition. The counters stay the transport's own atomics —
// always counted, evaluated at scrape time, never double-counted on the send
// path; Stats reads the same atomics.
func (r *RetryTransport) InstrumentWith(reg *obs.Registry) {
	reg.CounterFunc("siren_send_delivered_total", "datagrams ultimately delivered by the retrying sender", func() int64 {
		return int64(r.sent.Load())
	})
	reg.CounterFunc("siren_send_retries_total", "re-send attempts after a failed send", func() int64 {
		return int64(r.retries.Load())
	})
	reg.CounterFunc("siren_send_errors_total", "datagrams lost for good: every send attempt failed", func() int64 {
		return int64(r.errors.Load())
	})
}
