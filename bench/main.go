// Command bench is the repository's end-to-end benchmark: it builds
// siren-receiver, siren-serve and siren-analyze from the tree, runs four
// workloads against those binaries as child processes over loopback UDP and
// HTTP, checks their outputs, and prints every metric by name. With -trace
// the same load generator drives the same layers assembled in-process, and
// a span recorder at every layer boundary yields the per-layer budget. See
// README.md in this directory.
//
//	go run ./bench -seed 1                       # all four workloads
//	go run ./bench -seed 1 -workload mixed-live  # one workload
//	go run ./bench -seed 1 -trace                # the traced run
//	go run ./bench -seed 1 -repeat 2             # repeatability check
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchSpec is BENCHMARK.json at the repository root: the one place that
// names the workloads and the metrics a driver reads, with unit, direction
// and bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// Metrics that only some workloads have are printed, recorded and compared
// by -repeat, but cannot be in BENCHMARK.json's end_to_end list, which
// every workload must report in full and never as 0. These are their
// bounds: relative for the latencies — the issue's initial values, widened
// where twice the inter-quartile spread of the first twenty runs was larger
// (README.md) — and absolute for the fractions.
var (
	workloadBounds = map[string]float64{
		"queryable_lag_p50_s": 0.12,
		"queryable_lag_p95_s": 0.20,
		"identify_p50_ms":     0.17,
		"identify_p95_ms":     0.75,
	}
	absoluteBounds = map[string]float64{
		"ingest_loss_frac":   0.001,
		"identify_fail_frac": 0.001,
	}
)

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one workload run measured and checked.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Metrics   map[string]metricValue `json:"metrics"`
	Series    map[string][]float64   `json:"series,omitempty"` // the samples behind the metrics that are medians of repetitions
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Budget    []budgetLine           `json:"window_budget,omitempty"` // traced run: spans of the timed window, per boundary
	order     []string
	badChecks int
}

func (r *result) set(name string, v float64, unit string, samples int) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

// keep records the samples a median was taken of, for run-<utc>.json.
func (r *result) keep(name string, samples []float64) {
	if r.Series == nil {
		r.Series = make(map[string][]float64)
	}
	r.Series[name] = samples
}

// check counts one output check; a failed one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.badChecks++
		r.fail(1, fmt.Sprintf(format, args...))
	}
}

// operations counts attempted operations of the load generator and the
// ones that failed, with the first few reasons.
func (r *result) operations(attempted int, fails failureLog) {
	r.Attempted += attempted
	if fails.n > 0 {
		r.fail(fails.n, fails.msgs...)
	}
}

func (r *result) fail(n int, msgs ...string) {
	r.Failed += n
	r.Failures = append(r.Failures, msgs...)
}

// correct is whether the run's outputs were right: every output check
// passed, and datagram loss and failed identify requests — failed
// operations either way — stayed within their absolute bounds, as UDP ingest
// is lossy by contract.
func (r *result) correct() bool {
	for name, bound := range absoluteBounds {
		if m, ok := r.Metrics[name]; ok && m.Value > bound {
			return false
		}
	}
	return r.badChecks == 0
}

func (r *result) print() {
	mode := "untraced, child processes"
	if r.Traced {
		mode = "traced, in-process"
	}
	fmt.Printf("\n== %s (%s) ==\n", r.Workload, mode)
	for _, name := range r.order {
		m := r.Metrics[name]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Printf("  %-40s %14.6g %-10s %s\n", name, m.Value, m.Unit, samples)
	}
	if len(r.Budget) > 0 {
		fmt.Printf("  spans of the timed window, per boundary:\n")
		fmt.Printf("    %-28s %8s %12s %12s\n", "boundary", "calls", "total ms", "self ms")
		for _, l := range r.Budget {
			fmt.Printf("    %-28s %8d %12.2f %12.2f\n", l.Name, l.Calls, l.TotalMS, l.SelfMS)
		}
	}
	fmt.Printf("  operations and checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// driverLine is the one JSON object a driver reads from the last line of
// standard output: every end_to_end metric of BENCHMARK.json for an
// untraced run, every per_layer metric for a traced one.
func (r *result) driverLine(spec *benchSpec) (string, error) {
	want := spec.EndToEnd
	if r.Traced {
		want = spec.PerLayer
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]driverMetric, len(want))
	for _, sm := range want {
		m, ok := r.Metrics[sm.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", r.Workload, sm.Name)
		}
		if m.Unit != sm.Unit {
			return "", fmt.Errorf("%s: metric %s has unit %s, BENCHMARK.json says %s", r.Workload, sm.Name, m.Unit, sm.Unit)
		}
		metrics[sm.Name] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, metrics})
	return string(line), err
}

// runRecord is bench/out/run-<utc>.json: the full result of one invocation
// with what is needed to compare it with a later one.
type runRecord struct {
	UTC      string    `json:"utc"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Commit   string    `json:"commit"`
	NProc    int       `json:"nproc"`
	GoVer    string    `json:"go_version"`
	StoreFS  string    `json:"store_fs"` // tmpfs makes fdatasync cheap: latencies are this filesystem's, not a device's
	BuildS   float64   `json:"build_s"`
	Results  []*result `json:"results"`
	Repeated int       `json:"repeat,omitempty"`
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// repoRoot is the nearest ancestor of the working directory holding go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

type binaries struct{ receiver, serve, analyze string }

// buildBinaries builds the three programs under test from the tree.
func buildBinaries(root, out string) (binaries, time.Duration, error) {
	bin := filepath.Join(out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/siren-receiver", "./cmd/siren-serve", "./cmd/siren-analyze")
	cmd.Dir = root
	if output, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build: %v\n%s", err, output)
	}
	return binaries{
		receiver: filepath.Join(bin, "siren-receiver"),
		serve:    filepath.Join(bin, "siren-serve"),
		analyze:  filepath.Join(bin, "siren-analyze"),
	}, time.Since(start), nil
}

// normalizeArgs lets a driver write "--trace 0" and "--trace 1" where the
// flag package wants "-trace=false" and "-trace".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	if err := run(normalizeArgs(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of every generated input")
	workload := fs.String("workload", "", "run one workload (default: all of BENCHMARK.json)")
	seconds := fs.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	traced := fs.Bool("trace", false, "traced run: the layers assembled in-process, per-layer metrics")
	repeat := fs.Int("repeat", 1, "run the set this many times and compare the end-to-end metrics of the first two")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	out := filepath.Join(root, "bench", "out")
	bins, buildDur, err := buildBinaries(root, out)
	if err != nil {
		return err
	}
	fmt.Printf("bench: built siren-receiver, siren-serve, siren-analyze in %.2f s (not part of setup_s)\n", buildDur.Seconds())

	h := newHygiene()
	defer h.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()

	record := runRecord{
		UTC: time.Now().UTC().Format("20060102T150405Z"), Seed: *seed, Seconds: *seconds, Traced: *traced,
		Commit: gitCommit(root), NProc: runtime.NumCPU(), GoVer: runtime.Version(), StoreFS: fsType(out),
		BuildS: buildDur.Seconds(), Repeated: *repeat,
	}
	fmt.Printf("bench: seed %d, %g s windows, %d CPUs, %s, stores on %s\n",
		*seed, *seconds, record.NProc, record.GoVer, record.StoreFS)

	sets := make([][]*result, *repeat)
	var runErr error
sets:
	for i := range sets {
		for _, name := range names {
			e := &env{root: root, out: out, bins: bins, h: h, seed: *seed, sz: defaultSizes(*seconds)}
			if *traced {
				e.rec = newRecorder()
			}
			r, err := e.runWorkload(name, spec, record.UTC)
			if err != nil {
				runErr = fmt.Errorf("%s: %w", name, err)
				break sets
			}
			r.print()
			sets[i] = append(sets[i], r)
			record.Results = append(record.Results, r)
		}
	}
	recordPath := filepath.Join(out, "run-"+record.UTC+".json")
	if data, err := json.MarshalIndent(record, "", "  "); err != nil {
		runErr = errors.Join(runErr, err)
	} else if err := os.WriteFile(recordPath, data, 0o644); err != nil {
		runErr = errors.Join(runErr, err)
	} else {
		fmt.Printf("\nbench: results kept in %s\n", recordPath)
	}
	if runErr != nil {
		return runErr
	}

	var failed []string
	for _, r := range record.Results {
		if !r.correct() {
			failed = append(failed, r.Workload)
		}
	}
	if *repeat > 1 && !compareSets(spec, sets[0], sets[1]) {
		failed = append(failed, "repeatability")
	}
	if len(names) == 1 && *repeat == 1 {
		line, err := record.Results[0].driverLine(spec)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// compareSets prints, per end-to-end metric and workload, both values,
// their relative difference and the bound, and reports whether every
// difference is within its bound.
func compareSets(spec *benchSpec, a, b []*result) bool {
	fmt.Printf("\n== repeatability: two sets of runs of the same code ==\n")
	fmt.Printf("  %-16s %-22s %14s %14s %9s %9s\n", "workload", "metric", "first", "second", "diff", "bound")
	relative := maps.Clone(workloadBounds)
	for _, sm := range spec.EndToEnd {
		relative[sm.Name] = sm.Bound
	}
	ok := true
	for i := range a {
		for _, name := range a[i].order {
			va, vb := a[i].Metrics[name].Value, b[i].Metrics[name].Value
			diff := math.Abs(vb - va)
			bound, gated := absoluteBounds[name]
			if !gated {
				if bound, gated = relative[name]; !gated {
					continue
				}
				diff /= math.Max(math.Min(va, vb), 1e-12)
			}
			verdict := ""
			if diff > bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("  %-16s %-22s %14.6g %14.6g %8.1f%% %8.1f%% %s\n",
				a[i].Workload, name, va, vb, 100*diff, 100*bound, verdict)
		}
	}
	return ok
}
