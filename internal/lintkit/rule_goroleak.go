// Rule goroleak: library goroutines carry a visible join.
//
// Drain-on-close (DESIGN.md §4) means every goroutine a library package
// starts is accounted for: Close/Shutdown can wait for it, tests under
// -race see it exit, and nothing keeps writing after the store is sealed.
// The rule flags a `go` statement in a library package unless the join
// mechanism is visible right there — the goroutine body touches a
// sync.WaitGroup, a channel, or a context; the launched method's receiver
// struct carries one; the launch passes one in as an argument; or the
// launching function itself waits. This is a heuristic, not an escape
// analysis: it accepts anything that plausibly joins and flags only
// fire-and-forget launches with no lifecycle hook in sight.
package lintkit

import (
	"go/ast"
	"go/types"
)

type goroLeak struct{}

func (goroLeak) Name() string { return "goroleak" }
func (goroLeak) Doc() string {
	return "library goroutines must have a visible join (WaitGroup, channel, or context)"
}

func (goroLeak) Run(p *Pass) {
	if isMainPkg(p.Pkg) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			launcherWaits := containsWait(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if launcherWaits || joined(p, g) {
					return true
				}
				p.Reportf(g.Pos(),
					"goroutine started without a visible join: thread a sync.WaitGroup, done channel, or context so Close can drain it")
				return true
			})
		}
	}
}

// containsWait reports whether body calls a sync Wait (WaitGroup or Cond) —
// a launcher that waits in-line has its join.
func containsWait(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if funcIn(p.ObjectOf(sel.Sel), "sync", "Wait") {
			found = true
		}
		return !found
	})
	return found
}

// joined reports whether the go statement itself exhibits a join mechanism.
func joined(p *Pass, g *ast.GoStmt) bool {
	// go func() { ... }(): the body referencing a WaitGroup, channel, or
	// context is the join (wg.Done, sends/closes, ctx.Done selects).
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if referencesJoinType(p, lit.Body) {
			return true
		}
	}
	// go s.loop(): the receiver struct carrying the lifecycle state
	// (WaitGroup, done channel, context field) is the join.
	if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
		if n := namedOrPtrTo(p.TypeOf(sel.X)); n != nil {
			if st, ok := n.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if joinType(st.Field(i).Type()) {
						return true
					}
				}
			}
		}
	}
	// go worker(ch, ctx): passing the mechanism in counts too.
	for _, arg := range g.Call.Args {
		if joinType(p.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// referencesJoinType reports whether any identifier in body denotes a
// value of a join-capable type.
func referencesJoinType(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := p.ObjectOf(id); obj != nil && joinType(obj.Type()) {
			found = true
		}
		return !found
	})
	return found
}

// joinType reports whether t is a type that plausibly joins a goroutine:
// a channel, a sync.WaitGroup, or a context.Context.
func joinType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	return typeIs(t, "sync", "WaitGroup") || typeIs(t, "context", "Context")
}
