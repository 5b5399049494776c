// Command siren-analyze loads one or more receiver databases (WAL files),
// consolidates the UDP messages into per-process records, and regenerates
// the paper's tables and figures — the post-processing + statistics stage of
// the architecture (Figure 1), which the paper implements in Python.
//
// Usage:
//
//	siren-analyze -db siren.wal [-csv table5] [-json] [-workers N]
//	siren-analyze -db 'siren-0.wal,siren-1.wal,siren-2.wal'   # multi-receiver
//	siren-analyze -db 'campaign/siren-*.wal*'                 # glob over members
//
// -db takes a comma-separated list of WAL base paths, each element optionally
// a glob. Glob matches may name the member databases' on-disk artifacts
// directly (segment files "base.N", "base.lock"); they are folded back to
// their base paths and deduplicated. Multiple members — the databases of the
// N receivers of one roster (siren-receiver -member-id rK -roster
// 'r0=…,r1=…,r2=…'; a static split is a roster without @health addresses,
// which nobody probes) — are analysed through one merged
// snapshot, producing exactly the report a single receiver ingesting the
// whole campaign would. Overlapping (JOBID, HOST) runs left by a receiver
// failover (the dead member's recovered WAL vs. the replayed copy its keys'
// new owners hold) are deduplicated before consolidation, so merging a
// crashed member back in never double-counts its overlap window.
//
// A sealed-run block found corrupt while the store is read withholds its
// rows; siren-analyze then prints the error instead of a report and exits
// non-zero.
//
// -json emits the full report as machine-readable JSON in exactly the shape
// the serving tier's /api/v1/report endpoint returns (report.JSONReport —
// one source of truth). -workers bounds the streaming-consolidation workers
// (0 = one per store shard), the knob behind the multi-core read-curve
// measurements.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"siren/internal/analysis"
	"siren/internal/postprocess"
	"siren/internal/pysec"
	"siren/internal/report"
	"siren/internal/sirendb"
	"siren/internal/ssdeep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "siren-analyze:", err)
		os.Exit(1)
	}
}

// run owns the process lifecycle so the deferred set close — which releases
// every member's advisory lock — fires on error paths too. The old main
// called os.Exit from a fatal() helper, which skipped deferred closes.
func run() (err error) {
	dbSpec := flag.String("db", "siren.wal", "WAL file(s) to analyse: comma-separated base paths, each optionally a glob")
	csvTable := flag.String("csv", "", "emit one table as CSV instead of the full report (table2|table3|table5|table8)")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON (the /api/v1/report shape)")
	workers := flag.Int("workers", 0, "streaming-consolidation workers (0 = one per store shard)")
	audit := flag.Bool("audit", false, "cross-reference Python imports against the insecure-package database (paper §6 future work)")
	clusters := flag.Int("clusters", 0, "report similarity clusters of user executables at this threshold (0 = off)")
	flag.Parse()

	paths, err := sirendb.ResolveSetPaths(*dbSpec)
	if err != nil {
		return err
	}
	set, err := sirendb.OpenSet(paths, sirendb.Options{})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, set.Close()) }()
	// Streaming, shard-parallel consolidation over the merged snapshot
	// cursor: member databases (one per roster member) and their WAL
	// shards are grouped per job without ever materialising the whole
	// message set. A single -db path is the one-member degenerate case; over
	// several, the set's snapshot has already dropped a recovered member's
	// copies of runs that another member holds in full (DESIGN.md §11).
	snap := set.Snapshot()
	data, stats := analysis.ConsolidateDataset(snap, postprocess.StreamOptions{Workers: *workers})
	// A sealed block that fails its checksum ends its stream early; a report
	// built without its rows would pass a truncated campaign off as whole.
	if err := snap.Err(); err != nil {
		return fmt.Errorf("reading the store: %w", err)
	}

	if *audit {
		runAudit(data)
		return nil
	}
	if *clusters > 0 {
		runClusters(data, *clusters)
		return nil
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report.BuildJSON(data, stats))
	}
	if *csvTable == "" {
		report.WriteEvaluation(os.Stdout, data, stats)
		return nil
	}
	switch *csvTable {
	case "table2":
		var rows [][]string
		for _, s := range data.UserStats() {
			rows = append(rows, []string{s.User, report.Itoa(s.Jobs), report.Itoa(s.SystemProcs),
				report.Itoa(s.UserProcs), report.Itoa(s.PythonProcs)})
		}
		report.CSV(os.Stdout, []string{"user", "jobs", "system", "user", "python"}, rows)
	case "table3":
		var rows [][]string
		for _, e := range data.TopSystemExecutables(0) {
			rows = append(rows, []string{e.Path, report.Itoa(e.UniqueUsers), report.Itoa(e.Jobs),
				report.Itoa(e.Processes), report.Itoa(e.UniqueObjectsH)})
		}
		report.CSV(os.Stdout, []string{"executable", "users", "jobs", "procs", "objects_h"}, rows)
	case "table5":
		var rows [][]string
		for _, l := range data.DeriveLabels() {
			rows = append(rows, []string{l.Label, report.Itoa(l.UniqueUsers), report.Itoa(l.Jobs),
				report.Itoa(l.Processes), report.Itoa(l.UniqueFileH)})
		}
		report.CSV(os.Stdout, []string{"label", "users", "jobs", "procs", "file_h"}, rows)
	case "table8":
		var rows [][]string
		for _, s := range data.PythonInterpreters() {
			rows = append(rows, []string{s.Interpreter, report.Itoa(s.UniqueUsers), report.Itoa(s.Jobs),
				report.Itoa(s.Processes), report.Itoa(s.UniqueScriptH)})
		}
		report.CSV(os.Stdout, []string{"interpreter", "users", "jobs", "procs", "script_h"}, rows)
	default:
		return fmt.Errorf("unknown table %q", *csvTable)
	}
	return nil
}

// runAudit matches observed Python imports against the curated advisory DB.
func runAudit(data *analysis.Dataset) {
	db := pysec.NewDB()
	userMap := data.PythonPackageUsers()
	var obs []pysec.ImportObservation
	for _, p := range data.PythonPackages() {
		obs = append(obs, pysec.ImportObservation{
			Package: p.Package, Users: userMap[p.Package], Jobs: p.Jobs, Processes: p.Processes,
		})
	}
	findings := db.Audit(obs)
	if len(findings) == 0 {
		fmt.Println("audit: no flagged Python imports")
		return
	}
	var rows [][]string
	for _, f := range findings {
		rows = append(rows, []string{f.Severity.String(), f.Package, strings.Join(f.Users, " "),
			report.Itoa(f.Jobs), report.Itoa(f.Processes), f.Reason})
	}
	report.Table(os.Stdout, "Python import audit (insecure/suspicious packages)",
		[]string{"severity", "package", "users", "jobs", "procs", "reason"}, rows)
}

// runClusters prints similarity clusters of user executables.
func runClusters(data *analysis.Dataset, threshold int) {
	cs := data.SimilarityClusters(threshold, ssdeep.BackendWeighted)
	purity, n := analysis.ClusterPurity(cs)
	fmt.Printf("similarity clusters at threshold %d: %d clusters, label purity %.2f\n\n", threshold, n, purity)
	var rows [][]string
	for i, c := range cs {
		rows = append(rows, []string{report.Itoa(i), c.DominantLabel(),
			report.Itoa(len(c.Members)), report.Itoa(c.Processes), strings.Join(c.Labels, " ")})
	}
	report.Table(os.Stdout, "", []string{"#", "dominant", "binaries", "procs", "labels"}, rows)
}
