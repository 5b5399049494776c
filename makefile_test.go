package siren_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefilePatternsMatchTests: every |-alternative of every -run, -bench
// and -fuzz pattern in the Makefile names at least one Test, Benchmark or
// Fuzz function in the repository. `go test` runs zero tests without a word
// when an alternative has gone stale, so a renamed or deleted test would
// otherwise drop out of its focused CI target unnoticed. NONE (the "run no
// tests" idiom) is skipped, and only the first /-component of a pattern is
// checked: the rest select subtests and sub-benchmarks. The benchmark gate's
// PACKAGE:'PATTERN' arguments are held tighter still: each alternative must
// name a Benchmark function of that very package.
func TestMakefilePatternsMatchTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	benchesIn := map[string][]string{} // package directory -> its Benchmark functions
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || d.Name() == "out" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
			if strings.HasPrefix(string(m[1]), "Benchmark") {
				benchesIn[filepath.Dir(path)] = append(benchesIn[filepath.Dir(path)], string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	flagRE := regexp.MustCompile(`-(run|bench|fuzz)[= ](?:'([^']*)'|(\S+))`)
	var recipes strings.Builder // recipe lines only: comments mention flags too
	for _, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(line, "\t") {
			recipes.WriteString(line + "\n")
		}
	}
	checked := 0
	for _, m := range flagRE.FindAllStringSubmatch(recipes.String(), -1) {
		pattern := strings.ReplaceAll(m[2]+m[3], "$$", "$") // make's escape
		first, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(first, "|") {
			if alt == "NONE" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-%s %q: alternative %q: %v", m[1], pattern, alt, err)
				continue
			}
			checked++
			if !matchesAny(re, funcs) {
				t.Errorf("-%s %q: alternative %q matches no Test/Benchmark/Fuzz function", m[1], pattern, alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run/-bench/-fuzz patterns in the Makefile")
	}

	gateRE := regexp.MustCompile(`(\./[\w./-]+):'([^']*)'`)
	gated := gateRE.FindAllStringSubmatch(recipes.String(), -1)
	if len(gated) == 0 {
		t.Fatal("found no PACKAGE:'PATTERN' benchmark-gate arguments in the Makefile")
	}
	for _, m := range gated {
		dir := filepath.Clean(m[1])
		pattern := strings.ReplaceAll(m[2], "$$", "$")
		first, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(first, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("gate %s:%q: alternative %q: %v", m[1], pattern, alt, err)
			} else if !matchesAny(re, benchesIn[dir]) {
				t.Errorf("gate %s:%q: alternative %q matches no Benchmark function in %s", m[1], pattern, alt, dir)
			}
		}
	}
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
