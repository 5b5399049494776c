// benchdiff is the benchmark-regression gate behind `make bench-gate`: it
// parses `go test -bench -benchmem` output, reduces each benchmark to its best
// (minimum) ns/op, B/op and allocs/op across repeated counts — the run least
// disturbed by scheduler noise — and either writes that reduction as a
// baseline JSON or compares it against a committed baseline, failing when the
// geometric-mean slowdown exceeds the threshold or when any single
// benchmark's allocs/op rose by more than 10 %. Time is noisy, so it is gated
// on a geomean with slack; allocation counts repeat from run to run, so each
// benchmark is held to its own.
//
// Write a baseline:
//
//	go test -bench ... -count=5 ./... | benchdiff -write -out BENCH_BASELINE.json
//
// Gate against it:
//
//	go test -bench ... -count=5 ./... | benchdiff -baseline BENCH_BASELINE.json
//
// Benchmarks are keyed by "pkg.Name" (the pkg: header joined with the
// benchmark line), so identically-named benchmarks in different packages —
// both analysis and server export BenchmarkIdentify — never collide. A
// benchmark present in the baseline but missing from the current run fails
// the gate: a silently-dropped benchmark must not pass as "no regression".
//
// `benchdiff pairs` is the end-to-end counterpart: it alternates bench/run.sh
// runs of a parent and a change and judges every end-to-end metric over the
// pairs (pairs.go).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed artifact: benchmark key -> best value per unit.
type Baseline struct {
	// Note records how the file was produced, for humans re-baselining.
	Note string `json:"note"`
	// NsPerOp maps "pkg.BenchmarkName" to minimum ns/op across counts.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp hold the -benchmem columns the same way.
	// Allocations are gated; bytes are recorded for the trajectory.
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	BytesPerOp  map[string]float64 `json:"bytes_per_op"`
}

// maxAllocGrowth is how far one benchmark's allocs/op may rise over its
// baseline: enough for a parallel benchmark's count to wobble, far below
// what one new allocation per operation adds to any gated benchmark.
const maxAllocGrowth = 1.10

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pairs" {
		if err := runPairs(os.Args[2:]); err != nil {
			fatalf("%v", err)
		}
		return
	}
	write := flag.Bool("write", false, "write a baseline instead of comparing")
	out := flag.String("out", "BENCH_BASELINE.json", "baseline file to write (with -write)")
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against")
	threshold := flag.Float64("threshold", 1.25, "maximum allowed geomean slowdown (current/baseline)")
	note := flag.String("note", "", "note to embed in the written baseline")
	flag.Parse()

	var in io.Reader = os.Stdin
	if args := flag.Args(); len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			fatalf("%v", err)
		}
		defer func() { _ = f.Close() }() // read-only input; nothing to lose
		in = f
	} else if len(args) > 1 {
		fatalf("at most one input file (default stdin), got %v", args)
	}

	cur, err := parseBench(in)
	if err != nil {
		fatalf("parsing bench output: %v", err)
	}
	if len(cur["ns/op"]) == 0 {
		fatalf("no benchmark results in input")
	}

	if *write {
		writeBaseline(*out, *note, cur)
		return
	}
	compare(*baselinePath, cur, *threshold)
}

// parseBench reads `go test -bench` output into one map per unit ("ns/op",
// "B/op", "allocs/op"; custom metrics are skipped). Package headers
// ("pkg: path") scope the benchmark lines that follow; repeated counts of
// one benchmark reduce to the minimum of each unit.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	best := map[string]map[string]float64{"ns/op": {}, "B/op": {}, "allocs/op": {}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if after, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(after)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  value unit  [value unit ...]
		if len(fields) < 4 {
			continue
		}
		key := pkg + "." + trimProcSuffix(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			unit, ok := best[fields[i+1]]
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %v", fields[i+1], line, err)
			}
			if old, ok := unit[key]; !ok || v < old {
				unit[key] = v
			}
		}
	}
	return best, sc.Err()
}

// trimProcSuffix drops the "-8" GOMAXPROCS suffix so keys are stable across
// machines with different core counts.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func writeBaseline(path, note string, cur map[string]map[string]float64) {
	b := Baseline{Note: note, NsPerOp: cur["ns/op"], AllocsPerOp: cur["allocs/op"], BytesPerOp: cur["B/op"]}
	if b.Note == "" {
		b.Note = "min ns/op, allocs/op and B/op across -count repeats; re-baseline with `make bench-rebaseline` (see DESIGN.md §9)"
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(b.NsPerOp), path)
}

func compare(path string, cur map[string]map[string]float64, threshold float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("reading baseline: %v", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("parsing baseline %s: %v", path, err)
	}
	if len(base.NsPerOp) == 0 {
		fatalf("baseline %s holds no benchmarks", path)
	}

	keys := make([]string, 0, len(base.NsPerOp))
	for k := range base.NsPerOp {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	logSum, n := 0.0, 0
	var missing, fatter []string
	fmt.Printf("%-72s %12s %12s %8s %21s\n", "benchmark", "baseline", "current", "ratio", "allocs/op")
	for _, k := range keys {
		b := base.NsPerOp[k]
		c, ok := cur["ns/op"][k]
		if !ok {
			missing = append(missing, k)
			continue
		}
		ratio := c / b
		allocs := ""
		if ba, ok := base.AllocsPerOp[k]; ok {
			ca, ok := cur["allocs/op"][k]
			if !ok {
				fatalf("%s has allocs/op in the baseline but none in this run: was it run with -benchmem?", k)
			}
			allocs = fmt.Sprintf("%.0f -> %.0f", ba, ca)
			if ca > ba*maxAllocGrowth {
				fatter = append(fatter, fmt.Sprintf("%s (%s)", k, allocs))
			}
		}
		fmt.Printf("%-72s %12.0f %12.0f %7.2fx %21s\n", k, b, c, ratio, allocs)
		logSum += math.Log(ratio)
		n++
	}
	for k, c := range cur["ns/op"] {
		if _, ok := base.NsPerOp[k]; !ok {
			fmt.Printf("%-72s %12s %12.0f   (new)\n", k, "-", c)
		}
	}
	if len(missing) > 0 {
		fatalf("benchmarks in baseline but missing from this run: %s", strings.Join(missing, ", "))
	}
	geomean := math.Exp(logSum / float64(n))
	fmt.Printf("geomean slowdown: %.3fx (threshold %.2fx, %d benchmarks)\n", geomean, threshold, n)
	if len(fatter) > 0 {
		fatalf("allocation regression: allocs/op up more than %.0f%% in %s", (maxAllocGrowth-1)*100, strings.Join(fatter, ", "))
	}
	if geomean > threshold {
		fatalf("benchmark regression: geomean %.3fx exceeds threshold %.2fx", geomean, threshold)
	}
	fmt.Println("benchdiff: PASS")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
