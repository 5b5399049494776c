package analysis

import (
	"sort"

	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

// Cluster is a group of distinct executables recognised as the same
// software by fuzzy-hash similarity — the paper's "recognition of repeated
// executions" generalised beyond exact matches: recompiled, re-versioned,
// or lightly modified binaries land in one cluster.
type Cluster struct {
	// Members are the distinct executables (one representative record per
	// unique (FILE_H, path) pair), sorted by path. Keying on the pair keeps
	// membership deterministic when two paths share one binary — the
	// UNKNOWN a.out that is byte-identical to an icon build must surface
	// under its own path regardless of record arrival order.
	Members []*postprocess.ProcessRecord
	// Labels are the distinct derived labels of the members, sorted. A
	// healthy cluster has one label (plus possibly UNKNOWN — which is how
	// clustering *names* unknowns).
	Labels []string
	// Processes is the total number of process executions across members.
	Processes int
}

// DominantLabel returns the most specific label of the cluster: the first
// non-UNKNOWN label, or UNKNOWN when the whole cluster is unidentified.
func (c *Cluster) DominantLabel() string {
	for _, l := range c.Labels {
		if l != UnknownLabel {
			return l
		}
	}
	return UnknownLabel
}

// SimilarityClusters groups every distinct user executable by FILE_H
// similarity at the given threshold (0–100) using single-linkage
// agglomeration: executables whose digests score >= threshold are linked,
// and connected components become clusters. Clusters are returned largest
// first (by member count, ties by dominant label).
//
// Threshold semantics follow Table 7's intuition: ~60+ links rebuilds of the
// same source; low thresholds start merging unrelated software; 100 reduces
// to exact-digest identity (the XALT behaviour).
func (d *Dataset) SimilarityClusters(threshold int, backend ssdeep.Backend) []Cluster {
	// One representative record per distinct FILE_H, with process counts.
	type bin struct {
		rec   *postprocess.ProcessRecord
		procs int
	}
	var bins []*bin
	index := make(map[string]*bin)
	for _, r := range d.Records {
		if r.Category != "user" || r.FileH == "" {
			continue
		}
		key := r.FileH + "\x1f" + r.Exe
		if b, ok := index[key]; ok {
			b.procs++
			continue
		}
		b := &bin{rec: r, procs: 1}
		index[key] = b
		bins = append(bins, b)
	}
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].rec.Exe != bins[j].rec.Exe {
			return bins[i].rec.Exe < bins[j].rec.Exe
		}
		return bins[i].rec.FileH < bins[j].rec.FileH
	})

	// Union-find over all pairwise scores; a pair already in one component is
	// not scored again.
	parent := make([]int, len(bins))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// Each digest is parsed and clamped once; an unparseable one leaves its
	// bin a singleton. Row i is the scorer's query for its whole inner loop.
	prepared := make([]preparedChar, len(bins))
	for i, b := range bins {
		prepared[i] = prepareChar(b.rec.FileH)
	}
	var sc ssdeep.Scorer
	for i := range bins {
		if !prepared[i].ok {
			continue
		}
		sc.Reset(prepared[i].p)
		for j := i + 1; j < len(bins); j++ {
			if !prepared[j].ok || find(i) == find(j) {
				continue
			}
			if sc.Score(prepared[j].p, backend) >= threshold {
				union(i, j)
			}
		}
	}

	groups := make(map[int][]*bin)
	for i, b := range bins {
		root := find(i)
		groups[root] = append(groups[root], b)
	}
	clusters := make([]Cluster, 0, len(groups))
	for _, members := range groups {
		var c Cluster
		labelSet := make(map[string]bool)
		for _, m := range members {
			c.Members = append(c.Members, m.rec)
			c.Processes += m.procs
			labelSet[DeriveLabel(m.rec.Exe)] = true
		}
		sort.Slice(c.Members, func(i, j int) bool { return c.Members[i].Exe < c.Members[j].Exe })
		for l := range labelSet {
			c.Labels = append(c.Labels, l)
		}
		sort.Strings(c.Labels)
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool {
		if len(clusters[i].Members) != len(clusters[j].Members) {
			return len(clusters[i].Members) > len(clusters[j].Members)
		}
		return clusters[i].DominantLabel() < clusters[j].DominantLabel()
	})
	return clusters
}

// ClusterPurity scores a clustering against the derived labels: the
// fraction of member executables whose label equals their cluster's
// dominant label, with UNKNOWN members counting as correct when clustered
// with a known label (that is the desired outcome — the unknown got
// identified). Returns purity in [0,1] and the cluster count.
func ClusterPurity(clusters []Cluster) (float64, int) {
	total, correct := 0, 0
	for _, c := range clusters {
		dom := c.DominantLabel()
		for _, m := range c.Members {
			total++
			l := DeriveLabel(m.Exe)
			if l == dom || l == UnknownLabel {
				correct++
			}
		}
	}
	if total == 0 {
		return 1, len(clusters)
	}
	return float64(correct) / float64(total), len(clusters)
}
