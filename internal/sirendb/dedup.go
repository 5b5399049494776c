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
	shard    int // member-local shard holding the run
	rows     int
	firstSeq uint64 // rebased sequence number of the run's first row
}

// DedupOverlaps scans the member snapshots for (JOBID, HOST) runs held by
// more than one member and suppresses the duplicate copies from every
// accessor of the merged view (Count, Iter, JobRows, ShardJobs,
// ShardJobRows, JobShardCounts — the whole postprocess.SnapshotView
// surface stays mutually consistent). It is idempotent and returns what it
// found; call it once after MergeSnapshots/DBSet.Snapshot when the member
// set may contain a recovered member's WAL. Cost: one streaming pass over
// all rows to find overlaps, plus one pass over the overlapping runs only.
func (ms *MergedSnapshot) DedupOverlaps() DedupStats {
	if ms.drop != nil {
		return ms.dedup // already applied
	}
	ms.drop = make([]map[jobHost]struct{}, len(ms.members))

	// Pass 1: locate every member's run of every (JOBID, HOST).
	runs := make(map[jobHost][]runInfo)
	for m, sn := range ms.members {
		for s := 0; s < sn.Shards(); s++ {
			for _, job := range sn.ShardJobs(s) {
				var cur *runInfo
				var curHost string
				sn.ShardJobRows(s, job, func(msg wire.Message, seq uint64) bool {
					if cur == nil || msg.Host != curHost {
						key := jobHost{job, msg.Host}
						rs := runs[key]
						if len(rs) > 0 && rs[len(rs)-1].member == m {
							// Same member, host revisited after interleaving
							// with another host of the same job+shard: still
							// one run.
							cur = &rs[len(rs)-1]
						} else {
							runs[key] = append(rs, runInfo{member: m, shard: s, firstSeq: ms.offsets[m] + seq})
							cur = &runs[key][len(runs[key])-1]
						}
						curHost = msg.Host
					}
					cur.rows++
					return true
				})
			}
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
		// The canonical run's datagram multiset, encoded-bytes keyed.
		bag := make(map[string]int, rs[canon].rows)
		ms.runRows(rs[canon], key, func(msg wire.Message) {
			bag[string(wire.Encode(msg))]++
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
			ms.runRows(r, key, func(msg wire.Message) {
				k := string(wire.Encode(msg))
				if left[k] == 0 {
					contained = false
					return
				}
				left[k]--
			})
			if !contained {
				st.Conflicts++
				continue
			}
			if ms.drop[r.member] == nil {
				ms.drop[r.member] = make(map[jobHost]struct{})
			}
			ms.drop[r.member][key] = struct{}{}
			st.SuppressedRuns++
			st.SuppressedRows += r.rows
			ms.count -= r.rows
		}
	}

	// Pass 3: jobs whose every row in one member-shard was suppressed must
	// vanish from that shard's job listing, or JobShardCounts would promise
	// the consolidator a shard segment that ShardJobRows never delivers.
	if st.SuppressedRuns > 0 {
		ms.deadShardJobs = make(map[int]map[string]struct{})
		base := 0
		for m, sn := range ms.members {
			if ms.drop[m] != nil {
				for s := 0; s < sn.Shards(); s++ {
					for _, job := range sn.ShardJobs(s) {
						alive := false
						sn.ShardJobRows(s, job, func(msg wire.Message, _ uint64) bool {
							if _, dead := ms.drop[m][jobHost{job, msg.Host}]; !dead {
								alive = true
								return false
							}
							return true
						})
						if !alive {
							gi := base + s
							if ms.deadShardJobs[gi] == nil {
								ms.deadShardJobs[gi] = make(map[string]struct{})
							}
							ms.deadShardJobs[gi][job] = struct{}{}
						}
					}
				}
			}
			base += sn.Shards()
		}
	}
	ms.dedup = st
	return st
}

// DedupStats returns what the applied DedupOverlaps found (zero value when
// dedup was never applied).
func (ms *MergedSnapshot) DedupStats() DedupStats { return ms.dedup }

// runRows streams one located run's messages.
func (ms *MergedSnapshot) runRows(r runInfo, key jobHost, f func(msg wire.Message)) {
	ms.members[r.member].ShardJobRows(r.shard, key.job, func(msg wire.Message, _ uint64) bool {
		if msg.Host == key.host {
			f(msg)
		}
		return true
	})
}

// dropped reports whether member m's run of (job, host) is suppressed.
func (ms *MergedSnapshot) dropped(m int, job, host string) bool {
	if ms.drop == nil || ms.drop[m] == nil {
		return false
	}
	_, ok := ms.drop[m][jobHost{job, host}]
	return ok
}
