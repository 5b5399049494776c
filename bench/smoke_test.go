package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smokeSizes are the four workloads at a size that runs in seconds: the
// point is that every flag, endpoint field and layer function the benchmark
// depends on still exists, not the numbers.
func smokeSizes() sizes {
	return sizes{
		seconds: 1, setups: 1,
		campaignScale: 0.001, ingestRate: 2000, mixedRate: 1000,
		catalogueN: 256, identifyRate: 20, mixedIdentifyRate: 10, warmup: 5,
		restartRows: 3000, sealEvery: 1000, restartWarmups: 1, restartReps: 1,
	}
}

// TestWorkloadsEmitEveryMetric runs all four workloads, untraced against
// freshly built binaries and traced in-process, and requires a correct run
// that reports every metric BENCHMARK.json names, in the unit it names.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	bins, _, err := buildBinaries(root, out)
	if err != nil {
		t.Fatal(err)
	}
	h := newHygiene()
	defer h.cleanup()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				e := &env{root: root, out: out, bins: bins, h: h, seed: 3, sz: smokeSizes()}
				if traced {
					e.rec = newRecorder()
				}
				r, err := e.runWorkload(w.Name, spec, "smoke")
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() {
					t.Fatalf("run not correct: %d failed of %d: %v", r.Failed, r.Attempted, r.Failures)
				}
				if _, err := r.driverLine(spec); err != nil {
					t.Fatal(err)
				}
				for _, sm := range spec.EndToEnd {
					if m, ok := r.Metrics[sm.Name]; !ok || m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v: must be measured and never 0", sm.Name, m.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
	left, err := filepath.Glob(filepath.Join(out, "*-*", "store.wal*"))
	if err != nil || len(left) > 0 {
		t.Errorf("stores left behind: %v %v", left, err)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "mixed-live", "--seed", "4", "--seconds", "10", "--trace", "0"},
			[]string{"--workload", "mixed-live", "--seed", "4", "--seconds", "10", "-trace=0"}},
		{[]string{"-trace", "1"}, []string{"-trace=1"}},
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace"}},
		{[]string{"-trace", "-repeat", "2"}, []string{"-trace", "-repeat", "2"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
