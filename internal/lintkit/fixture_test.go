package lintkit

import (
	"path/filepath"
	"regexp"
	"testing"
)

// The golden-fixture harness: each rule has a module tree under
// testdata/<rule>/ whose files carry `// want "regexp"` comments on the
// lines where the rule must fire. The tree is loaded under the synthetic
// module path "fix" (so fixture packages like fix/sirendb scope exactly
// like the real internal/sirendb), the rule runs, and the diagnostic set
// is diffed exactly against the wants — unexpected findings and missing
// findings both fail, so every fixture is simultaneously a positive and a
// negative test.

var wantRe = regexp.MustCompile(`// want "(.*)"`)

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func loadFixture(t *testing.T, dir string) *Module {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root, "fix")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return mod
}

func collectWants(t *testing.T, mod *Module) []want {
	t.Helper()
	var wants []want
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := mod.Fset.Position(c.Pos())
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/<dir>, runs rules, and diffs diagnostics
// against want comments exactly.
func runFixture(t *testing.T, dir string, rules []Rule) Result {
	t.Helper()
	mod := loadFixture(t, dir)
	res := Run(mod, rules)
	wants := collectWants(t, mod)

	for _, d := range res.Diagnostics {
		found := false
		for i := range wants {
			w := &wants[i]
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
	return res
}

func ruleByName(t *testing.T, name string) []Rule {
	t.Helper()
	for _, r := range AllRules() {
		if r.Name() == name {
			return []Rule{r}
		}
	}
	t.Fatalf("no rule named %q", name)
	return nil
}

func TestWalltimeFixtures(t *testing.T) { runFixture(t, "walltime", ruleByName(t, "walltime")) }
func TestNoDefaultMuxFixtures(t *testing.T) {
	runFixture(t, "nodefaultmux", ruleByName(t, "nodefaultmux"))
}
func TestErrSinkFixtures(t *testing.T)  { runFixture(t, "errsink", ruleByName(t, "errsink")) }
func TestGoroLeakFixtures(t *testing.T) { runFixture(t, "goroleak", ruleByName(t, "goroleak")) }
func TestSnapshotMutFixtures(t *testing.T) {
	runFixture(t, "snapshotmut", ruleByName(t, "snapshotmut"))
}
func TestMutexScopeFixtures(t *testing.T) { runFixture(t, "mutexscope", ruleByName(t, "mutexscope")) }

// TestSuppressionFixtures drives //lint:ignore end to end through a rule:
// a correctly named directive (lead or trailing form) silences the finding
// and lands it in Result.Suppressed; a wrong rule name silences nothing.
func TestSuppressionFixtures(t *testing.T) {
	res := runFixture(t, "suppress", ruleByName(t, "walltime"))
	if len(res.Suppressed) != 2 {
		t.Errorf("suppressed = %d findings, want 2 (lead + trailing directive)", len(res.Suppressed))
	}
	for _, d := range res.Suppressed {
		if d.Rule != "walltime" {
			t.Errorf("suppressed finding has rule %q, want walltime", d.Rule)
		}
	}
}

// TestRuleMetadata pins the registry: at least the six contract rules, each
// with a non-empty name and doc, names unique.
func TestRuleMetadata(t *testing.T) {
	rules := AllRules()
	if len(rules) < 6 {
		t.Fatalf("AllRules() = %d rules, want >= 6", len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if r.Name() == "" || r.Doc() == "" {
			t.Errorf("rule %T has empty name or doc", r)
		}
		if seen[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
	for _, name := range []string{"mutexscope", "snapshotmut", "nodefaultmux", "errsink", "goroleak", "walltime"} {
		if !seen[name] {
			t.Errorf("missing contract rule %q", name)
		}
	}
}

// TestDiagnosticString pins the human-readable finding format the CLI
// prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "walltime", Message: "no clocks"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "a/b.go:3:7: no clocks [walltime]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRepoIsClean is the acceptance gate in test form: the real module must
// produce zero unsuppressed diagnostics. Deleting any invariant-preserving
// fix from this PR turns this red (and `make sirenlint` with it).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repo module: %v", err)
	}
	res := Run(mod, AllRules())
	for _, d := range res.Diagnostics {
		t.Errorf("repo finding: %s", d)
	}
	if len(res.Suppressed) == 0 {
		t.Log("note: no suppressed findings (expected at least the Seal fsync exemptions)")
	}
}
