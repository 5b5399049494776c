package main

import (
	"strings"
	"testing"
)

// TestJudgeGateRule pins the micro gate's rule on synthetic pair series:
// a median past the bound fails only with more pairs lost than won, one
// more allocation than any parent reading fails, and a benchmark missing
// from one side fails (change) or is reported as new (parent).
func TestJudgeGateRule(t *testing.T) {
	series := func(ns []float64, allocs float64) map[string][]float64 {
		s := map[string][]float64{"ns/op": ns}
		for range ns {
			s["allocs/op"] = append(s["allocs/op"], allocs)
			s["B/op"] = append(s["B/op"], 64)
		}
		return s
	}
	parent := series([]float64{100, 104, 98, 101, 99}, 35)
	for _, c := range []struct {
		name           string
		parent, change map[string][]float64
		fail           bool
		verdict        string
	}{
		{"+30 %, every pair lost", parent, series([]float64{130, 135, 127, 131, 129}, 35), true, "5 of 5 pairs lost"},
		{"+30 % median, 3 of 5 pairs won", parent, series([]float64{99, 135, 97, 131, 98}, 35), false, "ok"},
		{"noise within the bound", parent, series([]float64{103, 99, 106, 97, 102}, 35), false, "ok"},
		{"+20 %, every pair lost", parent, series([]float64{120, 125, 118, 121, 119}, 35), false, "ok"},
		{"faster", parent, series([]float64{60, 61, 59, 60, 62}, 35), false, "ok"},
		{"one more alloc in every pair", parent, series([]float64{100, 104, 98, 101, 99}, 36), true, "allocs/op above every parent reading"},
		{"allocs overlap the parent's spread", series([]float64{100, 104, 98, 101, 99}, 246),
			map[string][]float64{"ns/op": {100, 104, 98, 101, 99}, "allocs/op": {234, 246, 240, 238, 246}}, false, "ok"},
		{"allocs above the spread", map[string][]float64{"ns/op": {100, 104, 98, 101, 99}, "allocs/op": {234, 246, 240, 238, 246}},
			series([]float64{100, 104, 98, 101, 99}, 247), true, "allocs/op above every parent reading"},
		{"missing from the change", parent, nil, true, "missing from the change"},
		{"missing from the parent", nil, parent, false, "new: not judged"},
		{"the parent failed one pair", series([]float64{100, 104, 98, 101}, 35), parent, true, "ran in 4 parent and 5 change pairs"},
	} {
		row, fail := judge(c.parent, c.change)
		if fail != c.fail || !strings.Contains(row, c.verdict) {
			t.Errorf("%s: fail=%v, row %q; want fail=%v and %q", c.name, fail, row, c.fail, c.verdict)
		}
	}
}

// TestParseBenchAppendsPerPair: each reading of a benchmark is appended in
// the order read, keyed by package and name without the GOMAXPROCS suffix,
// and custom metrics are skipped.
func TestParseBenchAppendsPerPair(t *testing.T) {
	out := `goos: linux
pkg: siren/internal/server
BenchmarkIdentify/serial/jobs=16
BenchmarkIdentify/serial/jobs=16-2   	   53656	     21509 ns/op	   10025 B/op	      35 allocs/op
pkg: siren/internal/analysis
BenchmarkIdentify/n=10000/indexed-2  	    5000	    191257 ns/op	  42.5 MB/s	     960 B/op	       1 allocs/op
PASS
`
	into := samples{}
	for want := 1; want <= 2; want++ {
		n, err := parseBench(strings.NewReader(out), into)
		if err != nil || n != 2 {
			t.Fatalf("parseBench = %d, %v; want 2 benchmarks", n, err)
		}
		if got := into["siren/internal/server.BenchmarkIdentify/serial/jobs=16"]["allocs/op"]; len(got) != want || got[want-1] != 35 {
			t.Fatalf("server allocs/op after %d reads = %v", want, got)
		}
	}
	a := into["siren/internal/analysis.BenchmarkIdentify/n=10000/indexed"]
	if len(a) != 3 || a["ns/op"][1] != 191257 || a["B/op"][0] != 960 {
		t.Errorf("analysis readings = %v, want ns/op, B/op and allocs/op only", a)
	}
	if _, err := parseBench(strings.NewReader("pkg: p\nBenchmarkX-2 10 1e ns/op\n"), samples{}); err == nil {
		t.Error("a malformed ns/op was accepted")
	}
}
