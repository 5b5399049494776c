// Extension benches: the design-choice ablation added on top of the
// paper's evaluation — the similarity-clustering threshold sweep behind
// `siren-analyze -clusters`.
package siren_test

import (
	"fmt"
	"testing"

	"siren/internal/analysis"
	"siren/internal/ssdeep"
)

// BenchmarkAblationClusterThresholds sweeps the similarity threshold of the
// repeated-execution clustering and reports cluster count and label purity:
// too low merges unrelated software, 100 degenerates to exact identity.
func BenchmarkAblationClusterThresholds(b *testing.B) {
	f := fixture(b)
	for _, threshold := range []int{30, 55, 80, 100} {
		b.Run(fmt.Sprintf("t=%d", threshold), func(b *testing.B) {
			var purity float64
			var n int
			for i := 0; i < b.N; i++ {
				clusters := f.data.SimilarityClusters(threshold, ssdeep.BackendWeighted)
				purity, n = clusterStats(clusters)
			}
			b.ReportMetric(purity*100, "%purity")
			b.ReportMetric(float64(n), "clusters")
		})
	}
}

func clusterStats(clusters []analysis.Cluster) (float64, int) {
	return firstOf(analysis.ClusterPurity(clusters)), len(clusters)
}

func firstOf(p float64, _ int) float64 { return p }
