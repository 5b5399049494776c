// //lint:ignore directive handling.
//
// A directive names the rules it silences and must say why:
//
//	//lint:ignore mutexscope freeze-the-world sealing holds every lock by design
//	fsyncDir(dir)
//
// It covers findings on its own line (trailing-comment form) and on the
// line immediately below (lead-comment form). Several rules are silenced
// at once with a comma-separated list. A directive with a wrong rule name
// silences nothing, and one with no reason is itself a finding (pseudo-rule
// "ignore") — the engine refuses undocumented suppressions.
package lintkit

import (
	"go/ast"
	"strings"
)

const ignorePrefix = "//lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	file  string
	line  int
	rules map[string]bool
}

// collectDirectives scans every file comment in the module, returning the
// valid directives plus "ignore" diagnostics for malformed ones.
func collectDirectives(mod *Module) ([]directive, []Diagnostic) {
	var dirs []directive
	var bad []Diagnostic
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, diag, ok := parseDirective(mod, c)
					if !ok {
						continue
					}
					if diag != nil {
						bad = append(bad, *diag)
						continue
					}
					dirs = append(dirs, d)
				}
			}
		}
	}
	return dirs, bad
}

// parseDirective parses one comment. ok is false when the comment is not a
// //lint:ignore directive at all; diag is non-nil when it is one but is
// malformed.
func parseDirective(mod *Module, c *ast.Comment) (directive, *Diagnostic, bool) {
	if !strings.HasPrefix(c.Text, ignorePrefix) {
		return directive{}, nil, false
	}
	rest := c.Text[len(ignorePrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return directive{}, nil, false // e.g. //lint:ignored — not ours
	}
	pos := mod.Fset.Position(c.Pos())
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return directive{}, &Diagnostic{
			Rule:    "ignore",
			Pos:     pos,
			Message: "malformed //lint:ignore directive: need a rule name and a reason",
		}, true
	}
	rules := make(map[string]bool)
	for _, r := range strings.Split(fields[0], ",") {
		if r != "" {
			rules[r] = true
		}
	}
	return directive{file: pos.Filename, line: pos.Line, rules: rules}, nil, true
}

// suppressed reports whether some directive covers d: same file, the
// directive's own line or the one above, and a matching rule name.
func suppressed(dirs []directive, d Diagnostic) bool {
	for _, dir := range dirs {
		if dir.file != d.Pos.Filename {
			continue
		}
		if d.Pos.Line != dir.line && d.Pos.Line != dir.line+1 {
			continue
		}
		if dir.rules[d.Rule] {
			return true
		}
	}
	return false
}
