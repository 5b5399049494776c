package sirendb

import (
	"fmt"
	"path/filepath"
	"strings"
)

// ResolveSetPaths expands a database spec into member WAL base paths — the
// shared -db argument grammar of cmd/siren-analyze and cmd/siren-serve:
// split on commas; an element without glob metacharacters is a literal base
// path, used verbatim (a fresh WAL path opens an empty store, and a base
// path that happens to end in digits is never mangled); an element with
// metacharacters is expanded, its matches — the stores' on-disk artifacts —
// folded back to base paths, and the result deduplicated preserving order.
// A pattern matching nothing is an error: silently analysing a freshly
// created empty store instead of the intended members would report a
// zero-row campaign as success.
func ResolveSetPaths(spec string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	add := func(base string) {
		if !seen[base] {
			seen[base] = true
			out = append(out, base)
		}
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.ContainsAny(part, "*?[") {
			add(part)
			continue
		}
		matches, err := filepath.Glob(part)
		if err != nil {
			return nil, fmt.Errorf("bad -db pattern %q: %w", part, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-db pattern %q matches nothing", part)
		}
		for _, m := range matches {
			add(basePath(m))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-db %q names no databases", spec)
	}
	return out, nil
}

// basePath folds one of a store's on-disk artifacts back to its WAL base
// path: the advisory lock "base.lock", seal artifacts
// "base.seal-commit" (and its ".tmp") / "base.run.G.S", and segment files
// "base.N". Exactly one numeric (segment) suffix is stripped — a base path
// that itself ends in digits must not collapse further ("siren.0.2" is
// segment 2 of base "siren.0", not of base "siren").
func basePath(p string) string {
	if s, ok := strings.CutSuffix(p, ".lock"); ok {
		return s
	}
	if s, ok := strings.CutSuffix(p, ".seal-commit"); ok {
		return s
	}
	if s, ok := strings.CutSuffix(p, ".seal-commit.tmp"); ok {
		return s
	}
	if s, ok := cutRunSuffix(p); ok {
		return s
	}
	if i := strings.LastIndexByte(p, '.'); i >= 0 && i < len(p)-1 && isDigits(p[i+1:]) {
		return p[:i]
	}
	return p
}

// cutRunSuffix strips a sealed-run suffix ".run.G.S" (two numeric fields
// after a literal "run"), returning the base and whether it matched.
func cutRunSuffix(p string) (string, bool) {
	rest := p
	for range 2 { // the trailing ".G.S"
		i := strings.LastIndexByte(rest, '.')
		if i < 0 || i == len(rest)-1 || !isDigits(rest[i+1:]) {
			return "", false
		}
		rest = rest[:i]
	}
	s, ok := strings.CutSuffix(rest, ".run")
	return s, ok
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
