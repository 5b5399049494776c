// benchdiff judges a change's speed against its parent, both run in one
// session on one host. Both modes export their trees with side.prepare and
// judge alternating pairs with summarize (pairs.go).
//
// The default mode is the micro gate behind `make bench-gate`:
//
//	benchdiff -parent HEAD~1 [-change .] ./internal/obs:'BenchmarkHistogramRecord$' ...
//
// Each argument is one gated benchmark, PACKAGE:PATTERN. In each of
// gatePairs pairs, `go test -run=NONE -bench=PATTERN -benchmem -count=1
// PACKAGE` runs in both trees, the side that runs first flipping pair by
// pair. A benchmark fails when
//
//   - its median ns/op is more than gateBound above the parent's and the
//     change lost more pairs than it won;
//   - the change's lowest allocs/op is above the parent's highest; or
//   - the parent reported it and the change did not.
//
// One only the change reported is new and not judged. B/op is printed, not
// gated. Keys are "pkg.Name", so analysis's and server's BenchmarkIdentify
// never collide.
//
// `benchdiff pairs` is the end-to-end counterpart: alternating bench/run.sh
// runs, judged on every end-to-end metric.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

const (
	// gatePairs is how many alternating parent/change pairs each gated
	// benchmark runs.
	gatePairs = 5
	// gateBound is how far the change's median ns/op may rise over the
	// parent's before lost pairs fail it.
	gateBound = 0.25
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "pairs" {
		err = runPairs(os.Args[2:])
	} else {
		err = runGate(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

// samples holds one side's readings: benchmark key -> unit -> one value per
// pair, in pair order.
type samples map[string]map[string][]float64

func runGate(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	parentSrc := fs.String("parent", "", "parent: a git revision (exported with git archive) or a directory")
	changeSrc := fs.String("change", ".", "change: a git revision or a directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentSrc == "" || fs.NArg() == 0 {
		return errors.New("usage: benchdiff -parent REV [-change REV|DIR] PACKAGE:PATTERN...")
	}
	for _, arg := range fs.Args() {
		if pkg, pattern, _ := strings.Cut(arg, ":"); pkg == "" || pattern == "" {
			return fmt.Errorf("%q is not PACKAGE:PATTERN", arg)
		}
	}
	work, err := os.MkdirTemp("", "benchdiff-gate-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(work) }() // scratch exports only
	sides := [2]*side{{Name: "parent", Source: *parentSrc}, {Name: "change", Source: *changeSrc}}
	for _, s := range sides {
		if err := s.prepare(work); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "benchdiff: parent %s, change %s: %d benchmarks, %d pairs\n",
		sides[0].Commit, sides[1].Commit, fs.NArg(), gatePairs)

	got := [2]samples{{}, {}}
	for p := 0; p < gatePairs; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, arg := range fs.Args() {
			for _, i := range order {
				n, err := sides[i].bench(arg, got[i])
				switch {
				case i == 1 && err != nil:
					return err
				case i == 1 && n == 0:
					return fmt.Errorf("change: %s ran no benchmark", arg)
				case err != nil: // a benchmark the parent cannot run is new
					fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "benchdiff: pair %d of %d done\n", p+1, gatePairs)
	}

	var failed []string
	fmt.Printf("%-70s %12s %12s %6s %6s %25s %23s  %s\n",
		"benchmark", "parent ns/op", "change ns/op", "ratio", "faster", "allocs/op", "B/op", "verdict")
	keys := map[string]bool{}
	for _, s := range got {
		for k := range s {
			keys[k] = true
		}
	}
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		row, fail := judge(got[0][k], got[1][k])
		fmt.Printf("%-70s %s\n", k, row)
		if fail {
			failed = append(failed, k)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("FAIL: %s", strings.Join(failed, ", "))
	}
	fmt.Println("benchdiff: PASS")
	return nil
}

// bench runs the gated benchmark PACKAGE:PATTERN once in this side's tree
// and adds its readings to into, returning how many benchmarks reported.
func (s *side) bench(gated string, into samples) (int, error) {
	pkg, pattern, _ := strings.Cut(gated, ":")
	cmd := exec.Command("go", "test", "-run=NONE", "-bench="+pattern, "-benchmem", "-count=1", pkg)
	cmd.Dir = s.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("%s: go test -bench=%s %s: %v\n%s", s.Name, pattern, pkg, err, out)
	}
	return parseBench(bytes.NewReader(out), into)
}

// judge applies the gate's rule (see the package comment) to one
// benchmark's series, unit -> one value per pair, where a side that never
// reported the benchmark is nil. It returns the table row and whether the
// benchmark fails.
func judge(parent, change map[string][]float64) (string, bool) {
	median := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		return strconv.FormatFloat(quartilesOf(xs).Median, 'f', -1, 64)
	}
	pn, cn := parent["ns/op"], change["ns/op"]
	ratio, faster, allocs, verdict := "", "", "", "ok"
	var why []string
	switch {
	case cn == nil:
		why = append(why, "missing from the change")
	case pn == nil:
		verdict = "new: not judged"
	case len(pn) != len(cn):
		why = append(why, fmt.Sprintf("ran in %d parent and %d change pairs", len(pn), len(cn)))
	default:
		ns := summarize("", metricSpec{Name: "ns/op", Better: "lower", Bound: gateBound}, pn, cn, false)
		ratio, faster = fmt.Sprintf("%.2fx", ns.Ratio), fmt.Sprintf("%d/%d", ns.Wins, ns.Pairs)
		if ns.Verdict == "exceeds bound" && ns.Losses > ns.Wins {
			why = append(why, fmt.Sprintf("ns/op median ×%.2f, %d of %d pairs lost", ns.Ratio, ns.Losses, ns.Pairs))
		}
		if pa, ca := parent["allocs/op"], change["allocs/op"]; len(pa) > 0 && len(ca) > 0 {
			allocs = fmt.Sprintf("%g-%g → %g-%g", slices.Min(pa), slices.Max(pa), slices.Min(ca), slices.Max(ca))
			if slices.Min(ca) > slices.Max(pa) {
				why = append(why, "allocs/op above every parent reading")
			}
		}
	}
	if len(why) > 0 {
		verdict = "FAIL: " + strings.Join(why, "; ")
	}
	return fmt.Sprintf("%12s %12s %6s %6s %25s %23s  %s", median(pn), median(cn), ratio, faster, allocs,
		median(parent["B/op"])+" → "+median(change["B/op"]), verdict), len(why) > 0
}

// parseBench reads `go test -bench` output and appends each benchmark's
// ns/op, B/op and allocs/op to into (custom metrics are skipped). Package
// headers ("pkg: path") scope the benchmark lines that follow. It returns
// how many benchmark lines it read.
func parseBench(r io.Reader, into samples) (int, error) {
	n, pkg := 0, ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if after, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(after)
			continue
		}
		fields := strings.Fields(line)
		// Name  N  value unit  [value unit ...]
		if !strings.HasPrefix(line, "Benchmark") || len(fields) < 4 {
			continue
		}
		key := pkg + "." + trimProcSuffix(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			if unit := fields[i+1]; unit == "ns/op" || unit == "B/op" || unit == "allocs/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return n, fmt.Errorf("bad %s in %q: %v", unit, line, err)
				}
				if into[key] == nil {
					into[key] = map[string][]float64{}
				}
				into[key][unit] = append(into[key][unit], v)
			}
		}
		n++
	}
	return n, sc.Err()
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
