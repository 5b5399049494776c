package membership

import (
	"siren/internal/obs"
	"siren/internal/wire"
)

// SendStats is a snapshot of a retrying sender's counters.
type SendStats struct {
	// Sent counts datagrams ultimately delivered (Send returned nil).
	Sent uint64
	// Retries counts individual re-send attempts after a failed send.
	Retries uint64
	// SendErrors counts datagrams lost for good: every attempt failed.
	SendErrors uint64
}

// RetryTransport wraps a wire.Transport with bounded, backed-off retries and
// error accounting. UDP sendto errors (ENOBUFS under burst load,
// ECONNREFUSED picked up on connected loopback sockets) were previously
// dropped silently in the collector's fire-and-forget path; here they are
// retried up to the configured count and — if they still fail — surfaced in
// SendErrors instead of vanishing. Safe for concurrent Send calls; holds no
// locks, so a retry sleep never blocks other senders.
type RetryTransport struct {
	t       wire.Transport
	retries int // re-send attempts after the first failure (0 = fail immediately, counting the error)
	backoff Backoff

	sent, retried, errors *obs.Counter
}

// NewRetryTransport wraps t with up to retries re-sends paced by backoff.
// It counts into reg as siren_send_{delivered,retries,errors}_total; a nil
// reg gets a private registry, so a sender always counts.
func NewRetryTransport(t wire.Transport, retries int, backoff Backoff, reg *obs.Registry) *RetryTransport {
	if reg == nil {
		reg = obs.NewRegistry("siren-sender")
	}
	return &RetryTransport{
		t:       t,
		retries: retries,
		backoff: backoff,
		sent:    reg.Counter("siren_send_delivered_total", "datagrams ultimately delivered by the retrying sender"),
		retried: reg.Counter("siren_send_retries_total", "re-send attempts after a failed send"),
		errors:  reg.Counter("siren_send_errors_total", "datagrams lost for good: every send attempt failed"),
	}
}

// Send delivers b, retrying failed attempts. It returns the last error when
// every attempt failed.
func (r *RetryTransport) Send(b []byte) error {
	err := r.t.Send(b)
	for attempt := 0; err != nil && attempt < r.retries; attempt++ {
		r.backoff.Sleep(attempt, nil)
		r.retried.Inc()
		err = r.t.Send(b)
	}
	if err != nil {
		r.errors.Inc()
		return err
	}
	r.sent.Inc()
	return nil
}

// Close closes the underlying transport.
func (r *RetryTransport) Close() error { return r.t.Close() }

// Stats snapshots the counters.
func (r *RetryTransport) Stats() SendStats {
	return SendStats{
		Sent:       uint64(r.sent.Value()),
		Retries:    uint64(r.retried.Value()),
		SendErrors: uint64(r.errors.Value()),
	}
}
