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
// checked: the rest select subtests and sub-benchmarks.
func TestMakefilePatternsMatchTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
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
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
