// Package membership defines the campaign roster of a multi-receiver
// deployment and the rendezvous-hashing ownership rule over it — the
// receiver's only admission rule.
//
// A Table lists every receiver of a campaign (ID, UDP ingest address,
// health/stats HTTP address). Ownership of a (JOBID, HOST) key is decided by
// rendezvous (highest-random-weight) hashing: every member is scored against
// the key and the highest-scoring *live* member owns it. A roster whose
// members have no health address is never probed, so its ownership never
// moves: that is a static N-way deployment. The score chains
// wire.PartitionHash — the canonical (JOBID, HOST) keyed hash the receiver's
// writer shards already agree on — through the same xxhash, seeded per
// member ID, so sender dispatch and receiver admission compute identical
// ownership from identical inputs. When a member dies, ownership of each of
// its keys falls independently to the next-highest scorer, and — the
// rendezvous property — keys owned by surviving members never move.
//
// A View layers liveness over the table. Deaths are sticky: a member marked
// down stays down for the lifetime of the view, so sender and receivers
// converge on the same shrinking live set instead of flapping (a recovered
// member rejoins by merging its WAL at analysis time and re-entering the
// next campaign, see DESIGN.md §11). The package also carries the sender's
// robustness primitives: health probing (ProbeLive), the down-report client
// (ReportDown), a jittered capped Backoff, and RetryTransport.
package membership

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"siren/internal/wire"
	"siren/internal/xxhash"
)

// Member is one receiver of the campaign roster.
type Member struct {
	// ID names the member; it is the rendezvous hashing key, so it must be
	// unique and stable across every process reading the same roster.
	ID string
	// UDPAddr is the member's datagram ingest address ("host:port").
	UDPAddr string
	// HealthAddr is the member's stats mux address serving /healthz and
	// /membership ("" = unprobable: the member is assumed live forever).
	HealthAddr string
}

// Table is an immutable campaign roster. Every process of a deployment —
// senders and receivers — must be configured with the same roster (same
// members, any order): ownership depends only on member IDs and the key,
// never on roster order.
type Table struct {
	members []Member
	byID    map[string]int
	idBytes [][]byte // precomputed for the per-datagram scoring hot path
}

// NewTable builds a roster. Member IDs must be unique and non-empty; IDs,
// UDP addresses, and the separator characters of the roster spec ("=", "@",
// ",") must not collide.
func NewTable(members []Member) (*Table, error) {
	if len(members) == 0 {
		return nil, errors.New("membership: empty roster")
	}
	t := &Table{
		members: append([]Member(nil), members...),
		byID:    make(map[string]int, len(members)),
		idBytes: make([][]byte, len(members)),
	}
	udp := make(map[string]string, len(members))
	for i, m := range t.members {
		if m.ID == "" {
			return nil, fmt.Errorf("membership: member %d has an empty ID", i)
		}
		if strings.ContainsAny(m.ID, "=@, \t") {
			return nil, fmt.Errorf("membership: member ID %q contains a roster separator", m.ID)
		}
		if m.UDPAddr == "" {
			return nil, fmt.Errorf("membership: member %q has no UDP address", m.ID)
		}
		if _, dup := t.byID[m.ID]; dup {
			return nil, fmt.Errorf("membership: duplicate member ID %q", m.ID)
		}
		if other, dup := udp[m.UDPAddr]; dup {
			return nil, fmt.Errorf("membership: members %q and %q share UDP address %s", other, m.ID, m.UDPAddr)
		}
		udp[m.UDPAddr] = m.ID
		t.byID[m.ID] = i
		t.idBytes[i] = []byte(m.ID)
	}
	return t, nil
}

// ParseRoster parses the flag-friendly roster spec
//
//	id=udpaddr@healthaddr,id=udpaddr@healthaddr,...
//
// The "@healthaddr" part may be omitted for members without a stats mux.
func ParseRoster(spec string) (*Table, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("membership: empty roster spec")
	}
	var members []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addrs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("membership: roster entry %q: want id=udpaddr[@healthaddr]", part)
		}
		udp, health, _ := strings.Cut(addrs, "@")
		if udp == "" {
			return nil, fmt.Errorf("membership: roster entry %q: empty UDP address", part)
		}
		members = append(members, Member{ID: strings.TrimSpace(id), UDPAddr: udp, HealthAddr: health})
	}
	return NewTable(members)
}

// String renders the roster in ParseRoster's format.
func (t *Table) String() string {
	var sb strings.Builder
	for i, m := range t.members {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(m.ID)
		sb.WriteByte('=')
		sb.WriteString(m.UDPAddr)
		if m.HealthAddr != "" {
			sb.WriteByte('@')
			sb.WriteString(m.HealthAddr)
		}
	}
	return sb.String()
}

// Len reports the roster size.
func (t *Table) Len() int { return len(t.members) }

// Members returns a copy of the roster in table order.
func (t *Table) Members() []Member { return append([]Member(nil), t.members...) }

// Member returns member i.
func (t *Table) Member(i int) Member { return t.members[i] }

// Index returns the table index of the member named id.
func (t *Table) Index(id string) (int, bool) {
	i, ok := t.byID[id]
	return i, ok
}

// Score is the rendezvous weight of the member named id for the key
// (job, host): wire.PartitionHash reused as the keyed hash, its 64-bit key
// digest seeding one more xxhash round over the member ID. Like
// PartitionHash, this is a cross-process wire contract —
// every sender and receiver of a campaign must compute identical scores —
// pinned by golden-value tests.
func Score(id string, job, host []byte) uint64 {
	return xxhash.Sum64Seed([]byte(id), wire.PartitionHash(job, host))
}

// score is the allocation-free Table-internal form of Score.
func (t *Table) score(i int, keyHash uint64) uint64 {
	return xxhash.Sum64Seed(t.idBytes[i], keyHash)
}

// RankedOwners returns every member index ordered by descending rendezvous
// score for (job, host) — the failover order of the key. Ties (score
// collisions) break toward the smaller member ID so the order is identical
// in every process regardless of roster order.
func (t *Table) RankedOwners(job, host []byte) []int {
	kh := wire.PartitionHash(job, host)
	out := make([]int, len(t.members))
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := t.score(out[a], kh), t.score(out[b], kh)
		if sa != sb {
			return sa > sb
		}
		return t.members[out[a]].ID < t.members[out[b]].ID
	})
	return out
}

// View layers a live/down state over a roster. Deaths are sticky — MarkDown
// is one-way — so ownership only ever falls forward through the rendezvous
// order and two processes that observed the same death agree on every key's
// owner from then on. All methods are safe for concurrent use.
type View struct {
	t    *Table
	self int // -1 for an observer (sender) view
	down []atomic.Bool
}

// NewView builds a view of table t. selfID names the member this process is
// ("" for an observer view, e.g. a sender). A View never marks its own
// member down.
func NewView(t *Table, selfID string) (*View, error) {
	v := &View{t: t, self: -1, down: make([]atomic.Bool, t.Len())}
	if selfID != "" {
		i, ok := t.Index(selfID)
		if !ok {
			return nil, fmt.Errorf("membership: self ID %q is not in the roster %q", selfID, t)
		}
		v.self = i
	}
	return v, nil
}

// Table returns the underlying roster.
func (v *View) Table() *Table { return v.t }

// SelfIndex returns this process's member index, or -1 for an observer.
func (v *View) SelfIndex() int { return v.self }

// MarkDown marks the member named id as dead (sticky). It reports the
// member's index and whether this call changed the state. Marking self or
// an unknown ID is a no-op with idx -1.
func (v *View) MarkDown(id string) (idx int, changed bool) {
	i, ok := v.t.Index(id)
	if !ok || i == v.self {
		return -1, false
	}
	return i, v.MarkDownIndex(i)
}

// MarkDownIndex marks member i dead (sticky); it reports whether the state
// changed. Self is never marked.
func (v *View) MarkDownIndex(i int) bool {
	if i == v.self {
		return false
	}
	return v.down[i].CompareAndSwap(false, true)
}

// Down reports whether member i is marked dead.
func (v *View) Down(i int) bool { return v.down[i].Load() }

// LiveCount reports how many members are not marked down.
func (v *View) LiveCount() int {
	n := 0
	for i := range v.down {
		if !v.down[i].Load() {
			n++
		}
	}
	return n
}

// Route computes the ownership of key (job, host) under the current live
// view in one allocation-free pass: rank0 is the highest-scoring member of
// the whole roster (the key's owner when everyone is alive) and owner the
// highest-scoring member not marked down (-1 if every member is down).
// Receiver admission accepts exactly owner == self, counting the accept as
// failover when rank0 != self; sender dispatch addresses owner.
func (v *View) Route(job, host []byte) (rank0, owner int) {
	kh := wire.PartitionHash(job, host)
	rank0, owner = -1, -1
	var bestAll, bestLive uint64
	for i := range v.t.members {
		s := v.t.score(i, kh)
		if rank0 < 0 || s > bestAll || (s == bestAll && v.t.members[i].ID < v.t.members[rank0].ID) {
			rank0, bestAll = i, s
		}
		if v.down[i].Load() {
			continue
		}
		if owner < 0 || s > bestLive || (s == bestLive && v.t.members[i].ID < v.t.members[owner].ID) {
			owner, bestLive = i, s
		}
	}
	return rank0, owner
}
