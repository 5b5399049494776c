package wire

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
)

// Transport delivers encoded datagrams. Implementations must be safe for
// concurrent Send calls. Send follows fire-and-forget semantics: an error
// means the datagram was locally rejected, never that delivery failed.
//
// Send takes the datagram over. A transport may keep it after Send returns
// — ChanTransport queues it for the receiver, FailoverTransport journals it
// for replay, a capture keeps it — so the caller must not modify it
// afterwards, nor reuse its memory for another datagram. Senders therefore
// hand over a fresh slice per datagram (wire.Encode makes one), and a
// transport need not copy what it keeps. Handing one unchanging datagram to
// several transports, or to one several times, is allowed.
type Transport interface {
	Send(datagram []byte) error
	Close() error
}

// UDPTransport sends datagrams over a connected UDP socket.
type UDPTransport struct {
	conn *net.UDPConn
}

// DialUDP connects a UDP transport to addr ("host:port").
func DialUDP(addr string) (*UDPTransport, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolving %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	return &UDPTransport{conn: conn}, nil
}

// Send writes one datagram. Errors (e.g. ECONNREFUSED picked up on a
// connected UDP socket) are returned but senders are expected to ignore
// them — fire and forget.
func (t *UDPTransport) Send(datagram []byte) error {
	_, err := t.conn.Write(datagram)
	return err
}

// Close releases the socket.
func (t *UDPTransport) Close() error { return t.conn.Close() }

// ChanTransport delivers datagrams into an in-process channel — the
// deterministic test/simulation substitute for a UDP socket. It queues the
// datagram it is handed, without a copy (see Transport).
type ChanTransport struct {
	mu     sync.Mutex
	ch     chan []byte
	closed bool
	// Dropped counts datagrams discarded because the channel was full —
	// mirroring kernel socket-buffer overflow, the main UDP loss mode.
	Dropped int
}

// NewChanTransport creates a channel transport with the given buffer depth.
func NewChanTransport(depth int) *ChanTransport {
	return &ChanTransport{ch: make(chan []byte, depth)}
}

// C exposes the receive side.
func (t *ChanTransport) C() <-chan []byte { return t.ch }

// Send enqueues the datagram, dropping it if the buffer is full (exactly
// how a kernel drops UDP under pressure).
func (t *ChanTransport) Send(datagram []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("wire: transport closed")
	}
	select {
	case t.ch <- datagram:
	default:
		t.Dropped++
	}
	return nil
}

// Close closes the channel; subsequent Sends fail.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.ch)
	}
	return nil
}

// LossyTransport wraps another transport and drops a deterministic,
// seeded fraction of datagrams — the knob for reproducing the paper's
// "~0.02% of jobs have missing fields" observation.
type LossyTransport struct {
	mu      sync.Mutex
	inner   Transport
	rate    float64
	rng     *rand.Rand
	Dropped int
	Sent    int
}

// NewLossyTransport drops each datagram with probability rate (0..1).
func NewLossyTransport(inner Transport, rate float64, seed int64) *LossyTransport {
	return &LossyTransport{inner: inner, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Send forwards or silently drops the datagram.
func (t *LossyTransport) Send(datagram []byte) error {
	t.mu.Lock()
	drop := t.rng.Float64() < t.rate
	if drop {
		t.Dropped++
	} else {
		t.Sent++
	}
	t.mu.Unlock()
	if drop {
		return nil
	}
	return t.inner.Send(datagram)
}

// Close closes the wrapped transport.
func (t *LossyTransport) Close() error { return t.inner.Close() }
