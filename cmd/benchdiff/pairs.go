package main

// The pairs mode: alternating end-to-end runs of a parent and a change.
//
//	benchdiff pairs -parent HEAD~1 -workloads identify-serve -seeds 1x10,7x3 \
//	    -claim identify-serve/ready_s -label PR30
//
// Each side is a clean checkout — a git revision exported with `git archive`
// into the work directory, or an existing directory (the default change is
// the current checkout). For every seed the two sides' `bash bench/run.sh
// -seed S -workload W` runs alternate, the side that runs first alternating
// pair by pair, and the driver line each run prints last is kept. The
// summary gives, per workload and end-to-end metric, each side's median
// [q1, q3], the pairs the change won (ties count for neither) and a verdict:
// for the claimed metric, a gain needs at least nine tenths of all pairs won
// and a median gap, in the better direction, wider than the parent's
// inter-quartile distance; every other metric must keep the change's median
// within the metric's BENCHMARK.json bound of the parent's. Everything — the
// host, both revisions, every run and the summary — is written to
// BENCH_<date>_<label>.json.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// seedRuns is one -seeds element: Pairs alternating pairs at Seed.
type seedRuns struct {
	Seed  int64 `json:"seed"`
	Pairs int   `json:"pairs"`
}

func parseSeeds(s string) ([]seedRuns, error) {
	var out []seedRuns
	for _, f := range strings.Split(s, ",") {
		seed, pairs, _ := strings.Cut(strings.TrimSpace(f), "x")
		sd, err1 := strconv.ParseInt(seed, 10, 64)
		n, err2 := strconv.Atoi(pairs)
		if err1 != nil || err2 != nil || n < 1 {
			return nil, fmt.Errorf("seeds: %q is not SEEDxPAIRS", f)
		}
		out = append(out, seedRuns{Seed: sd, Pairs: n})
	}
	return out, nil
}

// driverLine is the JSON object bench/run.sh prints last for one workload.
type driverLine struct {
	Correct   bool                               `json:"correct"`
	Attempted int                                `json:"attempted"`
	Failed    int                                `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
}

// lastDriverLine parses the driver line: the last non-empty line of out.
func lastDriverLine(out []byte) (driverLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var d driverLine
	if err := json.Unmarshal([]byte(last), &d); err != nil || d.Metrics == nil {
		return driverLine{}, fmt.Errorf("no driver line at the end of the output (last line %q)", last)
	}
	return d, nil
}

// pairRun is one run of one side.
type pairRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Pair      int                `json:"pair"`
	Side      string             `json:"side"` // "parent" or "change"
	First     bool               `json:"first"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// quartiles is a sample's median and quartiles, each interpolated linearly
// between order statistics.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func quantile(sorted []float64, p float64) float64 {
	h := p * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func quartilesOf(xs []float64) quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quartiles{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// metricSpec is what BENCHMARK.json says of one end-to-end metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// metricSummary compares one metric of one workload across the pairs.
type metricSummary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	Parent   quartiles `json:"parent"`
	Change   quartiles `json:"change"`
	Ratio    float64   `json:"ratio"` // change median / parent median
	Pairs    int       `json:"pairs"`
	Wins     int       `json:"wins"` // pairs where the change read better
	Losses   int       `json:"losses"`
	Claimed  bool      `json:"claimed"`
	Verdict  string    `json:"verdict"`
}

// summarize compares parent[i] with change[i], pair by pair.
func summarize(workload string, spec metricSpec, parent, change []float64, claimed bool) metricSummary {
	s := metricSummary{
		Workload: workload, Metric: spec.Name, Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound,
		Parent: quartilesOf(parent), Change: quartilesOf(change), Pairs: len(parent), Claimed: claimed,
	}
	sign := 1.0 // positive where the change reads better
	if spec.Better != "higher" {
		sign = -1
	}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			s.Wins++
		case d < 0:
			s.Losses++
		}
	}
	if s.Parent.Median != 0 {
		s.Ratio = s.Change.Median / s.Parent.Median
	}
	gap := sign * (s.Change.Median - s.Parent.Median) // positive: the change's median is better
	switch {
	case claimed && 10*s.Wins >= 9*s.Pairs && gap > s.Parent.Q3-s.Parent.Q1:
		s.Verdict = "gain"
	case claimed:
		s.Verdict = "gain not shown"
	case -gap <= spec.Bound*math.Abs(s.Parent.Median):
		s.Verdict = "within bound"
	default:
		s.Verdict = "exceeds bound"
	}
	return s
}

// host is the machine block of a pairs result.
type host struct {
	CPUVendor string `json:"cpu_vendor"`
	CPUModel  string `json:"cpu_model"`
	Cores     int    `json:"cores"`
	Kernel    string `json:"kernel"`
	GoVersion string `json:"go_version"`
}

func probeHost() host {
	h := host{Cores: runtime.NumCPU(), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(k) {
			case "vendor_id":
				h.CPUVendor = cmp.Or(h.CPUVendor, strings.TrimSpace(v))
			case "model name":
				h.CPUModel = cmp.Or(h.CPUModel, strings.TrimSpace(v))
			}
		}
	}
	return h
}

// side is one of the two trees under comparison.
type side struct {
	Name   string `json:"-"`
	Source string `json:"source"` // the revision or directory asked for
	Commit string `json:"commit"`
	Dir    string `json:"dir"`
}

// prepare resolves Source to a directory: an existing directory is used in
// place; anything else is a git revision of the repository in the working
// directory, exported into work/Name.
func (s *side) prepare(work string) error {
	if st, err := os.Stat(s.Source); err == nil && st.IsDir() {
		if s.Dir, err = filepath.Abs(s.Source); err != nil {
			return err
		}
		head, _ := exec.Command("git", "-C", s.Dir, "rev-parse", "HEAD").Output()
		s.Commit = strings.TrimSpace(string(head))
		if dirty, _ := exec.Command("git", "-C", s.Dir, "status", "--porcelain").Output(); len(dirty) > 0 {
			s.Commit += " (with uncommitted changes)"
		}
		return nil
	}
	commit, err := exec.Command("git", "rev-parse", "--verify", s.Source+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("%s: %q is neither a directory nor a revision of this repository", s.Name, s.Source)
	}
	s.Commit = strings.TrimSpace(string(commit))
	s.Dir = filepath.Join(work, s.Name)
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	export := exec.Command("bash", "-c", `set -o pipefail; git archive "$1" | tar -x -C "$2"`, "export", s.Commit, s.Dir)
	if out, err := export.CombinedOutput(); err != nil {
		return fmt.Errorf("%s: exporting %s: %v\n%s", s.Name, s.Commit, err, out)
	}
	return nil
}

// run runs one workload at one seed on this side and keeps its whole output
// in log. A run that exits non-zero but printed its driver line is an
// incorrect run, recorded as such; one without a driver line is an error.
func (s *side) run(workload string, seed int64, log string) (driverLine, error) {
	cmd := exec.Command("bash", "bench/run.sh", "-seed", strconv.FormatInt(seed, 10), "-workload", workload)
	cmd.Dir = s.Dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	runErr := cmd.Run()
	if err := os.WriteFile(log, out.Bytes(), 0o644); err != nil {
		return driverLine{}, err
	}
	d, err := lastDriverLine(out.Bytes())
	if err != nil {
		return d, errors.Join(runErr, err)
	}
	return d, nil
}

// pairsResult is the BENCH_<date>_<label>.json document.
type pairsResult struct {
	UTC     string          `json:"utc"`
	Host    host            `json:"host"`
	Parent  side            `json:"parent"`
	Change  side            `json:"change"`
	Seeds   []seedRuns      `json:"seeds"`
	Claim   string          `json:"claim,omitempty"`
	Summary []metricSummary `json:"summary"`
	Runs    []pairRun       `json:"runs"`
}

func runPairs(args []string) error {
	fs := flag.NewFlagSet("benchdiff pairs", flag.ContinueOnError)
	parentSrc := fs.String("parent", "", "parent: a git revision (exported with git archive) or a directory")
	changeSrc := fs.String("change", ".", "change: a git revision or a directory")
	workloads := fs.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	seedsFlag := fs.String("seeds", "1x10", "comma-separated SEEDxPAIRS")
	claim := fs.String("claim", "", "the claimed metric, WORKLOAD/METRIC, judged by the gain rule")
	label := fs.String("label", "pairs", "result file name part: BENCH_<date>_<label>.json")
	work := fs.String("work", "", "directory for exported checkouts and run logs (default: a new temporary directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentSrc == "" {
		return errors.New("pairs: -parent is required")
	}
	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		return err
	}
	if *work == "" {
		if *work, err = os.MkdirTemp("", "benchdiff-pairs-"); err != nil {
			return err
		}
	}
	res := pairsResult{UTC: time.Now().UTC().Format(time.RFC3339), Host: probeHost(), Seeds: seeds, Claim: *claim,
		Parent: side{Name: "parent", Source: *parentSrc}, Change: side{Name: "change", Source: *changeSrc}}
	for _, s := range []*side{&res.Parent, &res.Change} {
		if err := s.prepare(*work); err != nil {
			return err
		}
	}
	specs, names, err := readSpec(res.Change.Dir)
	if err != nil {
		return err
	}
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	out := fmt.Sprintf("BENCH_%s_%s.json", time.Now().UTC().Format("20060102"), *label)
	// The result is rewritten after every run, so an interrupted session
	// keeps every pair it finished.
	save := func() error {
		res.Summary = summarizeRuns(res.Runs, names, specs, *claim)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(out, append(data, '\n'), 0o644)
	}
	fmt.Fprintf(os.Stderr, "benchdiff pairs: parent %s, change %s, logs in %s\n", res.Parent.Commit, res.Change.Commit, *work)

	for _, w := range names {
		for _, sr := range seeds {
			for p := 0; p < sr.Pairs; p++ {
				order := []*side{&res.Parent, &res.Change}
				if p%2 == 1 {
					order[0], order[1] = order[1], order[0]
				}
				for i, s := range order {
					log := filepath.Join(*work, fmt.Sprintf("%s-seed%d-pair%d-%s.log", w, sr.Seed, p, s.Name))
					d, err := s.run(w, sr.Seed, log)
					r := pairRun{Workload: w, Seed: sr.Seed, Pair: p, Side: s.Name, First: i == 0,
						Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]float64{}}
					for k, v := range d.Metrics {
						r.Metrics[k] = v.Value
					}
					if err != nil {
						r.Error = err.Error()
					}
					res.Runs = append(res.Runs, r)
					fmt.Fprintf(os.Stderr, "%s seed %d pair %d %s: correct=%v failed=%d %s\n", w, sr.Seed, p, s.Name, r.Correct, r.Failed, r.Error)
					if err := save(); err != nil {
						return err
					}
				}
			}
		}
	}
	printSummary(os.Stdout, res)
	fmt.Printf("benchdiff pairs: wrote %s\n", out)
	return nil
}

// readSpec reads BENCHMARK.json's end-to-end metrics and workload names.
func readSpec(dir string) ([]metricSpec, []string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return spec.EndToEnd, names, nil
}

// summarizeRuns pairs each change run with the parent run of the same
// workload, seed and pair number, and summarizes every metric over the pairs
// where both sides measured it.
func summarizeRuns(runs []pairRun, workloads []string, specs []metricSpec, claim string) []metricSummary {
	type key struct {
		w    string
		seed int64
		pair int
	}
	parents := map[key]pairRun{}
	for _, r := range runs {
		if r.Side == "parent" {
			parents[key{r.Workload, r.Seed, r.Pair}] = r
		}
	}
	var out []metricSummary
	for _, w := range workloads {
		for _, spec := range specs {
			var ps, cs []float64
			for _, r := range runs {
				if r.Side != "change" || r.Workload != w {
					continue
				}
				pv, pok := parents[key{r.Workload, r.Seed, r.Pair}].Metrics[spec.Name]
				cv, cok := r.Metrics[spec.Name]
				if pok && cok {
					ps, cs = append(ps, pv), append(cs, cv)
				}
			}
			if len(ps) > 0 {
				out = append(out, summarize(w, spec, ps, cs, claim == w+"/"+spec.Name))
			}
		}
	}
	return out
}

// printSummary prints the host block, failure counts and one table row per
// workload and metric, in EXPERIMENTS.md's table format.
func printSummary(w io.Writer, res pairsResult) {
	h := res.Host
	fmt.Fprintf(w, "host: %s %s, %d cores, kernel %s, %s\n", h.CPUVendor, h.CPUModel, h.Cores, h.Kernel, h.GoVersion)
	fmt.Fprintf(w, "parent %s\nchange %s\n\n", res.Parent.Commit, res.Change.Commit)
	failed, incorrect := map[string]int{}, map[string]int{}
	for _, r := range res.Runs {
		failed[r.Side] += r.Failed
		if !r.Correct {
			incorrect[r.Side]++
		}
	}
	fmt.Fprintf(w, "failed operations: parent %d, change %d; incorrect runs: parent %d, change %d\n\n",
		failed["parent"], failed["change"], incorrect["parent"], incorrect["change"])
	fmt.Fprintln(w, "| workload | metric | parent median [q1, q3] | change median [q1, q3] | ratio | change better | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	q := func(x quartiles) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", x.Median, x.Q1, x.Q3) }
	for _, s := range res.Summary {
		fmt.Fprintf(w, "| %s | `%s` | %s | %s | %.2f | %d/%d | %s |\n",
			s.Workload, s.Metric, q(s.Parent), q(s.Change), s.Ratio, s.Wins, s.Pairs, s.Verdict)
	}
}
