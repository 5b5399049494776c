// End-to-end integration tests at the repository root: the full campaign →
// transport → receiver → database → consolidation → evaluation path,
// exercised exactly the way cmd/siren-campaign drives it.
package siren_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"siren/internal/analysis"
	"siren/internal/campaign"
	"siren/internal/core"
	"siren/internal/postprocess"
	"siren/internal/pysec"
	"siren/internal/report"
	"siren/internal/ssdeep"
)

// evaluationFixture shares one end-to-end run across the root tests.
func evaluationFixture(t *testing.T) (*analysis.Dataset, postprocess.Stats) {
	t.Helper()
	p, err := core.NewPipeline(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if _, err := p.RunCampaign(campaign.Config{Scale: 0.01, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	data, stats, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return data, stats
}

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestEvaluationReportRenders pins the paper's tables byte for byte: the
// text report and the indented JSON report (siren-analyze -json's shape) of
// the seed-11, scale-0.01 campaign must equal testdata/evaluation.txt and
// testdata/evaluation.json. Regenerate them with
// `go test -run TestEvaluationReportRenders -update .`; the substrings below
// keep a regenerated golden from losing a table.
func TestEvaluationReportRenders(t *testing.T) {
	data, stats := evaluationFixture(t)
	var text, js bytes.Buffer
	report.WriteEvaluation(&text, data, stats)
	enc := json.NewEncoder(&js)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report.BuildJSON(data, stats)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/evaluation.txt", text.Bytes())
	checkGolden(t, "testdata/evaluation.json", js.Bytes())
	out := text.String()
	for _, want := range []string{
		"Table 2: users, jobs, and processes",
		"Table 3: top 10 system-directory executables",
		"Table 4: deviating shared objects of /usr/bin/bash",
		"Table 5: derived labels for user applications",
		"Table 6: compiler information of user applications",
		"Table 7: similarity search for /scratch/project_465000831/run/a.out",
		"Table 8: Python interpreters",
		"Figure 2: derived+filtered shared objects",
		"Figure 3: imported Python packages",
		"Figure 4: compiler identification by software label",
		"Figure 5: loaded shared-object usage by software label",
		"user_1", "icon", "/usr/bin/srun", "python3.6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("evaluation output missing %q", want)
		}
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}

func TestClusteringIdentifiesUnknownOnCampaignData(t *testing.T) {
	data, _ := evaluationFixture(t)
	clusters := data.SimilarityClusters(55, ssdeep.BackendWeighted)
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	// The a.out must cluster with icon binaries (the recognition claim).
	var unknownCluster *analysis.Cluster
	for i := range clusters {
		for _, m := range clusters[i].Members {
			if analysis.DeriveLabel(m.Exe) == analysis.UnknownLabel {
				unknownCluster = &clusters[i]
			}
		}
	}
	if unknownCluster == nil {
		t.Fatal("unknown binary not present in any cluster")
	}
	if unknownCluster.DominantLabel() != "icon" {
		t.Errorf("unknown clustered with %q, want icon (labels %v)",
			unknownCluster.DominantLabel(), unknownCluster.Labels)
	}
	purity, _ := analysis.ClusterPurity(clusters)
	if purity < 0.9 {
		t.Errorf("cluster purity = %.2f, want >= 0.9", purity)
	}
}

func TestSecurityAuditOnCampaignData(t *testing.T) {
	data, _ := evaluationFixture(t)
	db := pysec.NewDB()
	users := data.PythonPackageUsers()
	var obs []pysec.ImportObservation
	for _, p := range data.PythonPackages() {
		obs = append(obs, pysec.ImportObservation{
			Package: p.Package, Users: users[p.Package], Jobs: p.Jobs, Processes: p.Processes,
		})
	}
	findings := db.Audit(obs)
	// The campaign imports numpy, which carries an info-grade advisory; no
	// critical findings should appear in clean workloads.
	sawNumpy := false
	for _, f := range findings {
		if f.Package == "numpy" {
			sawNumpy = true
		}
		if f.Severity == pysec.SeverityCritical {
			t.Errorf("clean campaign produced critical finding: %+v", f)
		}
	}
	if !sawNumpy {
		t.Error("numpy advisory not matched")
	}
}

func TestVersionConstant(t *testing.T) {
	// Trivial, but pins the root package as buildable and importable.
	if len("siren") == 0 {
		t.Fatal("unreachable")
	}
}
