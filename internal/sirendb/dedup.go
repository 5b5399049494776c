// Overlap dedup: merging back a recovered member without double-ingest.
//
// Under a roster nobody probes, member WALs hold disjoint (JOBID, HOST) sets
// by construction. Failover (DESIGN.md §11) breaks that: when a member dies
// mid-campaign, the sender replays that member's journaled traffic to the
// keys' new rendezvous owners, so the new owner ends up holding a complete
// copy of each reassigned key's stream — while the dead member's recovered
// WAL still holds the partial copy it ingested before dying. Merging all
// WALs naively would double-count every overlapping row (the consolidator
// would see the duplicate segments as an identity collision and ingest
// both). DedupOverlaps resolves the overlap at the merge layer, below
// consolidation, where member identity is still known.
//
// The unit of dedup is the run: one member's rows of one (JOBID, HOST),
// which sharding keeps contiguous and insertion-ordered inside that member.
// For every (JOBID, HOST) held by two or more members, the canonical run is
// the longest one (tie: smallest rebased first-row sequence number, i.e.
// the earliest member — the ISSUE's (JOBID, HOST, first-row seq) identity);
// every other run is suppressed iff it is a sub-multiset of the canonical
// run, comparing whole encoded datagrams. Multisets, not prefixes: UDP
// transit may reorder datagrams within one (job, host) before storage, so
// a recovered member's partial copy is a sub-multiset — but not
// necessarily a prefix — of the replayed full copy. A run that overlaps
// without being contained (the senders genuinely produced different data
// under one key) is NOT suppressed; it is kept and counted in
// DedupStats.Conflicts so the anomaly stays visible downstream instead of
// being silently discarded.
package sirendb

import "siren/internal/wire"

// DedupStats reports what DedupOverlaps found and removed.
type DedupStats struct {
	// OverlappingKeys is the number of (JOBID, HOST) keys held by >= 2
	// members — the size of the failover overlap window (0 in a campaign
	// without failover).
	OverlappingKeys int
	// SuppressedRuns / SuppressedRows count the duplicate member runs (and
	// their rows) removed from the merged view.
	SuppressedRuns int
	SuppressedRows int
	// Conflicts counts overlapping runs that were NOT sub-multisets of
	// their key's canonical run and were therefore kept. Nonzero conflicts
	// mean two members hold genuinely different data for one key — a
	// misconfigured roster or colliding campaigns, never plain failover.
	Conflicts int
}

// jobHost keys a run within one member.
type jobHost struct{ job, host string }

// runInfo locates one member's run of one (JOBID, HOST).
type runInfo struct {
	member   int
	shard    int // the shard holding the run
	rows     int
	firstSeq uint64 // rebased sequence number of the run's first row
}

// DedupOverlaps scans a merged snapshot for (JOBID, HOST) runs held by more
// than one member and suppresses the duplicate copies from every accessor
// (Count, Iter, JobRows, ShardJobs, ShardJobRows, ShardCursor,
// JobShardCounts — the surface the streaming consolidation reads stays
// mutually consistent). It is idempotent and returns what it found;
// DBSet.Snapshot calls it, and a caller of MergeSnapshots calls it once when
// the member set may contain a recovered member's WAL. A snapshot of one
// member has nothing to dedup and costs nothing; otherwise the cost is one
// streaming pass over all rows to find overlaps, plus one pass over the
// overlapping runs only.
func (sn *Snapshot) DedupOverlaps() DedupStats {
	if sn.drop != nil {
		return sn.dedup // already applied
	}
	sn.drop = make([]map[jobHost]struct{}, sn.members)
	if sn.members < 2 {
		return sn.dedup
	}

	// Pass 1: locate every member's run of every (JOBID, HOST).
	runs := make(map[jobHost][]runInfo)
	for s := range sn.shards {
		m := sn.shards[s].member
		for _, job := range sn.ShardJobs(s) {
			var cur *runInfo
			var curHost string
			sn.ShardJobRows(s, job, func(row *wire.Scanned, seq uint64) bool {
				if host := row.Value(row.Datagram, wire.FieldHost); cur == nil || string(host) != curHost {
					curHost = string(host)
					key := jobHost{job, curHost}
					rs := runs[key]
					if len(rs) > 0 && rs[len(rs)-1].member == m {
						// Same member, host revisited after interleaving
						// with another host of the same job+shard: still
						// one run.
						cur = &rs[len(rs)-1]
					} else {
						runs[key] = append(rs, runInfo{member: m, shard: s, firstSeq: seq})
						cur = &runs[key][len(runs[key])-1]
					}
				}
				cur.rows++
				return true
			})
		}
	}

	// Pass 2: for each key with runs in >= 2 members, pick the canonical run
	// and suppress the contained duplicates.
	var st DedupStats
	for key, rs := range runs {
		if len(rs) < 2 {
			continue
		}
		st.OverlappingKeys++
		canon := 0
		for i := 1; i < len(rs); i++ {
			if rs[i].rows > rs[canon].rows ||
				(rs[i].rows == rs[canon].rows && rs[i].firstSeq < rs[canon].firstSeq) {
				canon = i
			}
		}
		// The canonical run's datagram multiset, keyed by the stored bytes
		// (canonical, so equal bytes are equal rows).
		bag := make(map[string]int, rs[canon].rows)
		sn.runRows(rs[canon], key, func(d []byte) {
			bag[string(d)]++
		})
		for i, r := range rs {
			if i == canon {
				continue
			}
			left := make(map[string]int, len(bag))
			for k, n := range bag {
				left[k] = n
			}
			contained := true
			sn.runRows(r, key, func(d []byte) {
				if left[string(d)] == 0 {
					contained = false
					return
				}
				left[string(d)]--
			})
			if !contained {
				st.Conflicts++
				continue
			}
			if sn.drop[r.member] == nil {
				sn.drop[r.member] = make(map[jobHost]struct{})
			}
			sn.drop[r.member][key] = struct{}{}
			st.SuppressedRuns++
			st.SuppressedRows += r.rows
			sn.count -= r.rows
		}
	}

	// Pass 3: jobs whose every row in one shard was suppressed must vanish
	// from that shard's job listing, or JobShardCounts would promise the
	// consolidator a shard segment that ShardJobRows never delivers.
	if st.SuppressedRuns > 0 {
		sn.deadShardJobs = make(map[int]map[string]struct{})
		for s := range sn.shards {
			if sn.drop[sn.shards[s].member] == nil {
				continue
			}
			for _, job := range sn.ShardJobs(s) {
				alive := false
				sn.ShardJobRows(s, job, func(*wire.Scanned, uint64) bool {
					alive = true
					return false
				})
				if !alive {
					if sn.deadShardJobs[s] == nil {
						sn.deadShardJobs[s] = make(map[string]struct{})
					}
					sn.deadShardJobs[s][job] = struct{}{}
				}
			}
		}
	}
	sn.dedup = st
	return st
}

// DedupStats returns what the applied DedupOverlaps found (zero value when
// dedup was never applied).
func (sn *Snapshot) DedupStats() DedupStats { return sn.dedup }

// runRows streams one located run's datagrams, as views.
func (sn *Snapshot) runRows(r runInfo, key jobHost, f func(d []byte)) {
	sn.ShardJobRows(r.shard, key.job, func(row *wire.Scanned, _ uint64) bool {
		if string(row.Value(row.Datagram, wire.FieldHost)) == key.host {
			f(row.Datagram)
		}
		return true
	})
}
