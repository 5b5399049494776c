// Rule snapshotmut: snapshots are forever-immutable.
//
// The lock-free read path (DESIGN.md §5, PR 3/4) works because a
// sirendb.Snapshot — also named sirendb.MergedSnapshot and
// postprocess.SnapshotView, both aliases — hands every
// caller the same underlying arrays: accessors return shared slices and
// maps, concurrent scanners iterate them with no lock, and the catalog's
// incremental refresh assumes rows it saw once never change. Writing
// through an accessor result — v[i] = x, in-place sort, delete on a
// returned map, even a self-append that can overwrite shared capacity —
// corrupts data under every other reader. Callers who need a mutable view
// copy first.
//
// The analysis is intra-procedural taint: variables initialized (directly
// or via aliasing) from a snapshot accessor returning a slice or map are
// tainted, and element writes, in-place sorts, deletes, and self-appends
// on tainted values are findings.
package lintkit

import (
	"go/ast"
	"go/token"
	"go/types"
)

type snapshotMut struct{}

func (snapshotMut) Name() string { return "snapshotmut" }
func (snapshotMut) Doc() string {
	return "no writes to slices/maps obtained from Snapshot/SnapshotView accessors"
}

func (snapshotMut) Run(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotWrites(p, fd.Body)
		}
	}
}

// snapshotAccessor reports whether call is a method on sirendb.Snapshot (or
// a pointer to it, reached through any alias) whose result is a (shared)
// slice or map, returning a description.
func snapshotAccessor(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if !typeIs(p.TypeOf(sel.X), "sirendb", "Snapshot") {
		return "", false
	}
	if t := p.TypeOf(call); t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			return "snapshot accessor " + sel.Sel.Name, true
		}
	}
	return "", false
}

// checkSnapshotWrites runs the taint pass over one function body, in source
// order: accessor results (and their aliases) become tainted, and writes
// through tainted values are reported.
func checkSnapshotWrites(p *Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]string)

	// taintRoot resolves e to a taint description if it is (or aliases) an
	// accessor result: either a direct accessor call expression or an
	// identifier previously marked tainted.
	taintRoot := func(e ast.Expr) (string, bool) {
		e = rootExpr(e)
		if call, ok := e.(*ast.CallExpr); ok {
			return snapshotAccessor(p, call)
		}
		if id, ok := e.(*ast.Ident); ok {
			if src, ok := tainted[p.ObjectOf(id)]; ok {
				return src, true
			}
		}
		return "", false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Writes: v[i] = x (or v[i].F = x) where v is tainted, and the
			// capacity-stealing self-append v = append(v, ...).
			for i, lhs := range n.Lhs {
				if idx := innermostIndex(lhs); idx != nil {
					if src, ok := taintRoot(idx.X); ok {
						p.Reportf(lhs.Pos(),
							"element write through %s result: snapshot data is shared and immutable — copy before modifying", src)
					}
				}
				if i < len(n.Rhs) {
					checkSelfAppend(p, taintRoot, lhs, n.Rhs[i])
				}
			}
			// Taint propagation: v := snap.Jobs(), w := v.
			if n.Tok == token.DEFINE || n.Tok == token.ASSIGN {
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if src, ok := taintRoot(n.Rhs[i]); ok && !isAppendCall(n.Rhs[i]) {
						if obj := p.ObjectOf(id); obj != nil {
							tainted[obj] = src
						}
					}
				}
			}
		case *ast.CallExpr:
			checkMutatingCall(p, taintRoot, n)
		}
		return true
	})
}

// rootExpr unwraps index, selector, slice, and paren layers to the base
// expression: snap.Jobs()[3].Field → snap.Jobs().
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// innermostIndex finds the index expression in an lvalue chain, if any:
// v[i] = x and v[i].F = x both write through v's backing array.
func innermostIndex(e ast.Expr) *ast.IndexExpr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// checkSelfAppend flags v = append(v, ...) on tainted v: when the shared
// slice has spare capacity the append writes into the snapshot's backing
// array that other readers are scanning.
func checkSelfAppend(p *Pass, taintRoot func(ast.Expr) (string, bool), lhs, rhs ast.Expr) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isAppendCall(call) || len(call.Args) == 0 {
		return
	}
	lhsID, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	argID, ok := rootExpr(call.Args[0]).(*ast.Ident)
	if !ok || p.ObjectOf(argID) == nil || p.ObjectOf(argID) != p.ObjectOf(lhsID) {
		return
	}
	if src, ok := taintRoot(call.Args[0]); ok {
		p.Reportf(rhs.Pos(),
			"self-append on %s result can write into the snapshot's shared backing array — copy first", src)
	}
}

// checkMutatingCall flags in-place mutation calls on tainted values:
// delete(m, k) and the sort package's in-place sorts.
func checkMutatingCall(p *Pass, taintRoot func(ast.Expr) (string, bool), call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
		if src, ok := taintRoot(call.Args[0]); ok {
			p.Reportf(call.Pos(), "delete on %s result mutates the shared snapshot map — copy first", src)
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
		return
	}
	switch fn.Name() {
	case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
		if src, ok := taintRoot(call.Args[0]); ok {
			p.Reportf(call.Pos(), "sort.%s mutates %s result in place — sort a copy", fn.Name(), src)
		}
	}
}
