// Package lintkit is SIREN's project-invariant static analyzer: a small
// rule engine over go/parser + go/types that machine-checks the contracts
// DESIGN.md states in prose — the group-commit lock discipline, snapshot
// immutability, serving-tier coexistence, durability error handling,
// goroutine drain-on-close, and analysis-path determinism.
//
// Rules are intra-procedural and deliberately conservative: each encodes
// one invariant the repository already documents, tuned so a clean tree
// stays clean without ceremony. A finding a human judges intentional is
// silenced in place with
//
//	//lint:ignore <rule> <reason>
//
// on (or immediately above) the offending line; the rule name must match
// and the reason is mandatory, so suppressions stay auditable. The engine
// is wired into `make lint` and CI through cmd/sirenlint (DESIGN.md §10).
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Pass hands one type-checked package to a rule.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	rule  string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.rule,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// Rule is one project invariant.
type Rule interface {
	// Name is the identifier //lint:ignore directives and -rules selections
	// use.
	Name() string
	// Doc is a one-line description of the invariant.
	Doc() string
	// Run analyzes one package and reports findings through the pass.
	Run(p *Pass)
}

// AllRules returns every registered rule, in stable order.
func AllRules() []Rule {
	return []Rule{
		errSink{},
		goroLeak{},
		mutexScope{},
		noDefaultMux{},
		snapshotMut{},
		wallTime{},
	}
}

// Result is one engine run: what fired, and what a directive silenced.
type Result struct {
	Diagnostics []Diagnostic // unsuppressed findings, position-sorted
	Suppressed  []Diagnostic // findings silenced by a valid //lint:ignore
}

// Run applies rules to every package of mod and filters the findings
// through the module's //lint:ignore directives. Malformed directives (no
// reason, unparseable) surface as findings of the pseudo-rule "ignore" —
// a suppression that does not say why does not suppress.
func Run(mod *Module, rules []Rule) Result {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		for _, r := range rules {
			p := &Pass{Fset: mod.Fset, Pkg: pkg, rule: r.Name(), diags: &diags}
			r.Run(p)
		}
	}

	dirs, bad := collectDirectives(mod)
	diags = append(diags, bad...)

	var res Result
	for _, d := range diags {
		if suppressed(dirs, d) {
			res.Suppressed = append(res.Suppressed, d)
		} else {
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	sortDiags(res.Diagnostics)
	sortDiags(res.Suppressed)
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// pathElems reports whether the package import path's last element is one
// of names — how rules scope themselves to the subsystems whose contracts
// they encode (and how fixtures under synthetic module paths still match).
func pathElems(pkg *Package, names ...string) bool {
	path := pkg.ImportPath
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	for _, n := range names {
		if last == n {
			return true
		}
	}
	return false
}

// isMainPkg reports whether pkg is a command (package main).
func isMainPkg(pkg *Package) bool { return pkg.Types.Name() == "main" }

// funcIn reports whether obj is the named function or method of the named
// package (matched by package-path suffix so fixtures under synthetic module
// paths behave like the real tree).
func funcIn(obj types.Object, pkgPath, name string) bool {
	f, ok := obj.(*types.Func)
	if !ok || f.Name() != name || f.Pkg() == nil {
		return false
	}
	p := f.Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// namedOrPtrTo unwraps aliases and pointers and returns the named type
// behind t, or nil.
func namedOrPtrTo(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	t = types.Unalias(t)
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = types.Unalias(p.Elem()).(*types.Named)
		}
	}
	return n
}

// typeIs reports whether t (or what it points to) is the named type
// pkgElem.name, with pkgElem matched as an import-path element.
func typeIs(t types.Type, pkgElem, name string) bool {
	n := namedOrPtrTo(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Name() != name {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == pkgElem || strings.HasSuffix(p, "/"+pkgElem)
}
