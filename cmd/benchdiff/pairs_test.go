package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuartilesInterpolate(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{5}, quartiles{5, 5, 5}},
		{[]float64{4, 1, 3, 2}, quartiles{1.75, 2.5, 3.25}},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, quartiles{3.25, 5.5, 7.75}},
		{[]float64{0.3, 0.1, 0.2}, quartiles{0.15, 0.2, 0.25}},
	} {
		got := quartilesOf(c.xs)
		if math.Abs(got.Q1-c.want.Q1) > 1e-12 || math.Abs(got.Median-c.want.Median) > 1e-12 || math.Abs(got.Q3-c.want.Q3) > 1e-12 {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// TestSummarizeVerdicts pins the gain rule — at least nine tenths of the
// pairs won and a median gap wider than the parent's inter-quartile
// distance, in the better direction — and the bound rule for the rest.
func TestSummarizeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "ready_s", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.25}
	parent := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19} // median 14.5, IQR 4.5
	minus := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x - d
		}
		return out
	}
	for _, c := range []struct {
		name    string
		spec    metricSpec
		change  []float64
		claimed bool
		wins    int
		verdict string
	}{
		{"clear gain", lower, minus(parent, 5), true, 10, "gain"},
		{"every pair won, gap inside the IQR", lower, minus(parent, 4), true, 10, "gain not shown"},
		{"wide gap, 8 of 10 won", lower, append(minus(parent[:8], 8), parent[8]+1, parent[9]+1), true, 8, "gain not shown"},
		{"ties count for neither side", lower, parent, true, 0, "gain not shown"},
		{"a higher-is-better gain", higher, minus(parent, -5), true, 10, "gain"},
		{"unclaimed, worse within the bound", lower, minus(parent, -3), false, 0, "within bound"},
		{"unclaimed, worse past the bound", lower, minus(parent, -4), false, 0, "exceeds bound"},
		{"unclaimed, better", higher, minus(parent, -4), false, 10, "within bound"},
	} {
		s := summarize("w", c.spec, parent, c.change, c.claimed)
		if s.Wins != c.wins || s.Verdict != c.verdict || s.Pairs != len(parent) {
			t.Errorf("%s: wins %d/%d, verdict %q; want %d, %q", c.name, s.Wins, s.Pairs, s.Verdict, c.wins, c.verdict)
		}
	}
}

func TestSummarizeRunsPairsBySeedAndPair(t *testing.T) {
	run := func(side string, seed int64, pair int, v float64) pairRun {
		return pairRun{Workload: "w", Seed: seed, Pair: pair, Side: side, Metrics: map[string]float64{"ready_s": v}}
	}
	runs := []pairRun{
		run("change", 1, 0, 1), run("parent", 1, 0, 2),
		run("parent", 1, 1, 2), run("change", 1, 1, 3),
		run("parent", 7, 0, 5), run("change", 7, 0, 4),
		run("change", 7, 1, 9), // its parent run has no driver line
		{Workload: "w", Seed: 7, Pair: 1, Side: "parent", Metrics: map[string]float64{}},
	}
	got := summarizeRuns(runs, []string{"w"}, []metricSpec{{Name: "ready_s", Better: "lower"}, {Name: "absent", Better: "lower"}}, "w/ready_s")
	if len(got) != 1 || got[0].Pairs != 3 || got[0].Wins != 2 || got[0].Losses != 1 || !got[0].Claimed {
		t.Fatalf("summary = %+v, want one claimed metric over 3 pairs, 2 won", got)
	}
}

func TestParseSeedsAndDriverLine(t *testing.T) {
	seeds, err := parseSeeds("1x10, 7x3")
	if err != nil || len(seeds) != 2 || seeds[0] != (seedRuns{1, 10}) || seeds[1] != (seedRuns{7, 3}) {
		t.Fatalf("parseSeeds = %v, %v", seeds, err)
	}
	for _, bad := range []string{"1", "1x0", "x3", "1x3,"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
	out := "bench: built\n== identify-serve ==\n" +
		`{"correct":true,"attempted":511,"failed":2,"metrics":{"ready_s":{"value":0.25,"unit":"s"}}}` + "\n\n"
	d, err := lastDriverLine([]byte(out))
	if err != nil || !d.Correct || d.Attempted != 511 || d.Failed != 2 || d.Metrics["ready_s"].Value != 0.25 {
		t.Fatalf("lastDriverLine = %+v, %v", d, err)
	}
	if _, err := lastDriverLine([]byte("bench: go build failed\n")); err == nil || !strings.Contains(err.Error(), "no driver line") {
		t.Errorf("output without a driver line: err = %v", err)
	}
}
