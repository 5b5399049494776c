package receiver

import (
	"sync"
	"sync/atomic"
)

// burst is one shard's share of one receive call: the datagrams' bytes
// packed back to back in buf, datagram i ending at ends[i]. A burst is the
// unit of hand-off — one channel operation and one copy target per shard
// per receive call, however many datagrams it carries.
type burst struct {
	buf  []byte
	ends []int
	enq  int64 // hand-off time (UnixNano); the writer's queue-wait sample
}

func (b *burst) add(d []byte) {
	b.buf = append(b.buf, d...)
	b.ends = append(b.ends, len(b.buf))
}

// truncate keeps the first k datagrams.
func (b *burst) truncate(k int) {
	b.buf = b.buf[:b.ends[k-1]]
	b.ends = b.ends[:k]
}

// burstPool recycles bursts between readers and writers, so the read side
// allocates nothing per datagram or per burst once warm.
var burstPool = sync.Pool{New: func() any { return &burst{ends: make([]int, 0, burstMax)} }}

func putBurst(b *burst) {
	b.buf, b.ends = b.buf[:0], b.ends[:0]
	burstPool.Put(b)
}

// shard is one writer's queue. ch carries bursts, but the bound is in
// datagrams: a producer reserves room in queued before it sends, and the
// writer gives it back as it takes each burst off ch. Every burst holds at
// least one datagram, so a channel of limit slots never blocks a send whose
// datagrams were reserved.
type shard struct {
	ch      chan *burst
	limit   int64        // Options.Depth / Writers datagrams
	queued  atomic.Int64 // datagrams reserved and not yet taken by the writer
	waiters atomic.Int32 // producers parked in reserveAll
	mu      sync.Mutex   // guards the wait in reserveAll
	space   sync.Cond    // signalled when the writer frees room for a waiter
}

func newShard(limit int) *shard {
	s := &shard{ch: make(chan *burst, limit), limit: int64(limit)}
	s.space.L = &s.mu
	return s
}

// reserveUpTo reserves room for as many of n datagrams as fit, and
// reports how many that is (0 when the shard is full).
func (s *shard) reserveUpTo(n int) int {
	for {
		cur := s.queued.Load()
		k := min(int64(n), s.limit-cur)
		if k <= 0 {
			return 0
		}
		if s.queued.CompareAndSwap(cur, cur+k) {
			return int(k)
		}
	}
}

// reserveAll waits until all n datagrams fit (n <= limit), then reserves
// them — the backpressure path of channel transports and the shutdown
// drain.
func (s *shard) reserveAll(n int) {
	if s.tryReserve(n) {
		return
	}
	s.mu.Lock()
	s.waiters.Add(1)
	for !s.tryReserve(n) {
		//lint:ignore mutexscope Cond.Wait releases mu while it waits; mu guards only this wait
		s.space.Wait()
	}
	s.waiters.Add(-1)
	s.mu.Unlock()
}

func (s *shard) tryReserve(n int) bool {
	for {
		cur := s.queued.Load()
		if cur+int64(n) > s.limit {
			return false
		}
		if s.queued.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// release gives back the room of n datagrams the writer took off ch. A
// waiter registers before it re-checks under mu, and the signal is sent
// under mu, so a wake-up cannot fall between its check and its wait.
func (s *shard) release(n int) {
	s.queued.Add(-int64(n))
	if s.waiters.Load() > 0 {
		s.mu.Lock()
		s.space.Broadcast()
		s.mu.Unlock()
	}
}
