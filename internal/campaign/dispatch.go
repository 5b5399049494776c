// Failover dispatch: the sender half of membership-table routing.
//
// A FailoverTransport replaces the single connected UDP socket with one
// socket per roster member and routes every datagram to the rendezvous
// owner of its (JOBID, HOST) under the sender's live view. When a send to a
// member errors (on loopback a SIGKILLed receiver surfaces as ECONNREFUSED
// picked up on the connected socket; on a network, probes catch it), the
// sender confirm-probes the member's health endpoint with backed-off
// retries; a confirmed death triggers the failover protocol:
//
//  1. report the death to every surviving member (membership.ReportDown),
//     so the new owners' admission accepts the reassigned keys before any
//     failed-over datagram arrives — concurrent senders spin on the failing
//     member's state until step 2, so nothing re-routes to a survivor that
//     has not yet been told;
//  2. mark the member down in the view — from here every Route, including
//     the replay below and concurrent senders' retries, avoids it;
//  3. seal the dead member's journal and replay every datagram ever sent
//     to it through normal routing — the keys' new owners receive a
//     complete copy of the dead member's stream. The recovered WAL merges
//     back as a subset of it, whose rows the consolidation counts once
//     (one copy of a repeated chunk is kept), so the final report comes
//     out byte-identical.
//
// The journal is the price of that guarantee: every delivered datagram is
// retained (grouped per member) until the transport closes, so a campaign
// of M sent bytes holds M bytes of sender memory. That is the deliberate
// trade for exactly-one-full-copy semantics without receiver-side
// cross-member coordination.
//
// Concurrency: member state is a lock-free alive/failing/dead machine;
// the only mutex guards journal appends and is never held across I/O,
// sleeps, or probes (the mutexscope contract). Losing racers of the
// failover CAS do not block on the winner — they sleep-retry through
// Route, which the winner's MarkDown redirects.
package campaign

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/membership"
	"siren/internal/wire"
)

// Member dispatch states.
const (
	stateAlive int32 = iota
	stateFailing
	stateDead
)

// FailoverOptions tune a FailoverTransport.
type FailoverOptions struct {
	// ProbeTimeout bounds each confirm-probe HTTP request (default 500ms).
	ProbeTimeout time.Duration
	// ProbeRetries is how many failed probes confirm a death (default 3).
	ProbeRetries int
	// Backoff paces probe retries and send re-attempts (default 20ms base,
	// 200ms cap, 0.2 jitter).
	Backoff membership.Backoff
	// MaxSendAttempts bounds one datagram's routing attempts across member
	// failures before Send gives up and counts a SendError (default 64).
	MaxSendAttempts int
	// ReportTimeout bounds each ReportDown request to a survivor (default
	// 2s).
	ReportTimeout time.Duration
	// Dial opens the per-member transport (default wire.DialUDP); tests
	// substitute in-process transports.
	Dial func(addr string) (wire.Transport, error)
}

func (o *FailoverOptions) defaults() {
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.ProbeRetries <= 0 {
		o.ProbeRetries = 3
	}
	if o.Backoff == (membership.Backoff{}) {
		o.Backoff = membership.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: 0.2}
	}
	if o.MaxSendAttempts <= 0 {
		o.MaxSendAttempts = 64
	}
	if o.ReportTimeout <= 0 {
		o.ReportTimeout = 2 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (wire.Transport, error) { return wire.DialUDP(addr) }
	}
}

// DispatchStats snapshots a FailoverTransport's counters.
type DispatchStats struct {
	Sent       uint64 // datagrams delivered to a live owner
	SendErrors uint64 // datagrams lost after exhausting every attempt
	Failovers  uint64 // members confirmed dead and failed over
	Replayed   uint64 // journal entries re-sent to new owners after a death
	Rerouted   uint64 // datagrams re-routed inline when their member sealed mid-send
	FalseAlarm uint64 // send errors whose member then answered a confirm-probe
}

// memberLink is one roster member's dispatch state.
type memberLink struct {
	idx   int
	m     membership.Member
	t     wire.Transport
	state atomic.Int32

	mu      sync.Mutex // guards journal+sealed only; never held across I/O
	journal [][]byte
	sealed  bool
}

// append journals one delivered datagram; false means the journal sealed
// (the member died) and the caller must re-route the datagram itself.
func (ml *memberLink) append(d []byte) bool {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if ml.sealed {
		return false
	}
	ml.journal = append(ml.journal, append([]byte(nil), d...))
	return true
}

// seal marks the journal closed and hands the entries to the caller.
func (ml *memberLink) seal() [][]byte {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	ml.sealed = true
	out := ml.journal
	ml.journal = nil
	return out
}

// FailoverTransport routes datagrams to rendezvous owners with
// probe-confirmed failover and journal replay. It implements
// wire.Transport, so campaigns and collectors use it unchanged.
type FailoverTransport struct {
	view    *membership.View
	members []*memberLink
	opts    FailoverOptions

	sent       atomic.Uint64
	sendErrors atomic.Uint64
	failovers  atomic.Uint64
	replayed   atomic.Uint64
	rerouted   atomic.Uint64
	falseAlarm atomic.Uint64
}

// NewFailoverTransport dials every member of the view's roster. The view
// should be an observer view (membership.NewView(table, "")); deaths the
// transport confirms are marked in it.
func NewFailoverTransport(view *membership.View, opts FailoverOptions) (*FailoverTransport, error) {
	opts.defaults()
	t := view.Table()
	f := &FailoverTransport{view: view, opts: opts, members: make([]*memberLink, t.Len())}
	for i := 0; i < t.Len(); i++ {
		m := t.Member(i)
		tr, err := opts.Dial(m.UDPAddr)
		if err != nil {
			_ = f.Close() // unwind the already-dialed members
			return nil, fmt.Errorf("campaign: dialing member %s (%s): %w", m.ID, m.UDPAddr, err)
		}
		f.members[i] = &memberLink{idx: i, m: m, t: tr}
	}
	return f, nil
}

// Stats snapshots the dispatch counters.
func (f *FailoverTransport) Stats() DispatchStats {
	return DispatchStats{
		Sent:       f.sent.Load(),
		SendErrors: f.sendErrors.Load(),
		Failovers:  f.failovers.Load(),
		Replayed:   f.replayed.Load(),
		Rerouted:   f.rerouted.Load(),
		FalseAlarm: f.falseAlarm.Load(),
	}
}

// Send routes one datagram to the live owner of its (JOBID, HOST),
// following ownership across member deaths until it is delivered or
// MaxSendAttempts is exhausted.
func (f *FailoverTransport) Send(d []byte) error {
	h, err := wire.Scan(d)
	job, host := h.Value(d, wire.FieldJobID), h.Value(d, wire.FieldHost)
	var lastErr error
	for attempt := 0; attempt < f.opts.MaxSendAttempts; attempt++ {
		if attempt > 0 {
			// Pace retries; cap the exponent so a long outage retries
			// steadily instead of overflowing toward Backoff.Max^inf.
			exp := attempt - 1
			if exp > 4 {
				exp = 4
			}
			f.opts.Backoff.Sleep(exp, nil)
		}
		ml := f.route(job, host, err == nil)
		if ml == nil {
			f.sendErrors.Add(1)
			return errors.New("campaign: no live members to route to")
		}
		if ml.state.Load() != stateAlive {
			// A racer is confirming this member; by the next attempt either
			// the view routes around it or it was a false alarm.
			lastErr = fmt.Errorf("campaign: member %s is failing", ml.m.ID)
			continue
		}
		if err := ml.t.Send(d); err != nil {
			// An errored send on a connected UDP socket never transmitted
			// the datagram (the pending socket error is returned instead),
			// so retrying cannot duplicate it.
			lastErr = err
			f.failMember(ml)
			continue
		}
		if !ml.append(d) {
			// Sealed between our send and the journal append: the replay
			// does not cover this datagram, so re-route it ourselves, or it
			// would be lost. The dying member may also have ingested it;
			// that copy is a duplicate, which consolidation counts once.
			f.rerouted.Add(1)
			lastErr = fmt.Errorf("campaign: member %s sealed mid-send", ml.m.ID)
			continue
		}
		f.sent.Add(1)
		return nil
	}
	f.sendErrors.Add(1)
	return fmt.Errorf("campaign: dropping datagram after %d attempts: %w", f.opts.MaxSendAttempts, lastErr)
}

// route picks the live owner's link. Datagrams that fail wire.Scan go to
// the lowest-indexed live member — every receiver counts them Malformed
// identically, so the choice only needs to be deterministic.
func (f *FailoverTransport) route(job, host []byte, scanned bool) *memberLink {
	if scanned {
		if _, owner := f.view.Route(job, host); owner >= 0 {
			return f.members[owner]
		}
		return nil
	}
	for _, ml := range f.members {
		if !f.view.Down(ml.idx) {
			return ml
		}
	}
	return nil
}

// failMember runs the failover protocol for a member whose send errored.
// Exactly one caller wins the CAS and resolves the incident; racers retry
// through Send's loop.
func (f *FailoverTransport) failMember(ml *memberLink) {
	if !ml.state.CompareAndSwap(stateAlive, stateFailing) {
		return
	}
	// Confirm death: a member that answers any probe is alive (a stale
	// ECONNREFUSED can surface after a receiver restart; don't evict on it).
	for p := 0; p < f.opts.ProbeRetries; p++ {
		if err := membership.ProbeLive(ml.m.HealthAddr, f.opts.ProbeTimeout); err == nil {
			ml.state.Store(stateAlive)
			f.falseAlarm.Add(1)
			return
		}
		f.opts.Backoff.Sleep(p, nil)
	}

	// Dead. Order matters: tell the survivors FIRST, so their admission
	// accepts the reassigned keys before any datagram is re-routed to them —
	// concurrent senders cannot race ahead, because the victim's keys only
	// leave it once MarkDownIndex below flips the view (until then their
	// Sends spin on the stateFailing check). Reporting after re-routing
	// would lose every row a stale survivor rejects in the window.
	for _, other := range f.members {
		if other.idx == ml.idx || f.view.Down(other.idx) {
			continue
		}
		// Best-effort: a survivor that cannot be reached right now will
		// still learn of the death from its own background prober.
		_ = membership.ReportDown(other.m.HealthAddr, ml.m.ID, f.opts.ReportTimeout)
	}
	f.view.MarkDownIndex(ml.idx)
	entries := ml.seal()
	ml.state.Store(stateDead)
	f.failovers.Add(1)
	for _, e := range entries {
		f.replayed.Add(1)
		// Re-routed through normal Send: the new owner journals it in turn,
		// so a second death keeps the guarantee.
		_ = f.Send(e)
	}
}

// Close closes every member transport.
func (f *FailoverTransport) Close() error {
	var errs []error
	for _, ml := range f.members {
		if ml == nil {
			continue
		}
		if err := ml.t.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

var _ wire.Transport = (*FailoverTransport)(nil)
