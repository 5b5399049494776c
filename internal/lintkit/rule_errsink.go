// Rule errsink: durability errors don't vanish.
//
// The no-acked-row-lost guarantee (DESIGN.md §3) is only as strong as the
// weakest error path: a Close that silently fails on a WAL segment, a Sync
// whose error is dropped in a shutdown sequence, an fdatasync return code
// thrown away while sealing a run file. In the durability packages
// (sirendb, its runfmt run-file layer, receiver, catalog) and in every
// command, a discarded error from a Close/Sync/Flush/fdatasync-class call
// is a finding. Check it, join it into the function's error return, or —
// for cleanup on a path that is already failing — assign it to _ so the
// discard is visible and deliberate.
package lintkit

import (
	"go/ast"
	"go/types"
)

type errSink struct{}

func (errSink) Name() string { return "errsink" }
func (errSink) Doc() string {
	return "unchecked error from Close/Sync/Flush/fdatasync-class calls in durability paths"
}

// errSinkNames are the durability-flavored calls whose error return must
// not be silently dropped.
var errSinkNames = map[string]bool{
	"Close": true, "Sync": true, "Flush": true,
	"fdatasync": true, "fsyncDir": true, "Fdatasync": true,
}

func (errSink) Run(p *Pass) {
	if !pathElems(p.Pkg, "sirendb", "runfmt", "receiver", "catalog") && !isMainPkg(p.Pkg) {
		return
	}
	if isExample(p.Pkg) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			how := ""
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
				how = "discarded"
			case *ast.DeferStmt:
				call = s.Call
				how = "discarded by defer"
			case *ast.GoStmt:
				call = s.Call
				how = "discarded by go"
			}
			if call == nil {
				return true
			}
			if name, ok := errReturningSink(p, call); ok {
				p.Reportf(call.Pos(),
					"error from %s %s: check it, join it into the returned error, or assign it to _ explicitly",
					name, how)
			}
			return true
		})
	}
}

// errReturningSink reports whether call is a Close/Sync/Flush/fdatasync-class
// call with an error among its results.
func errReturningSink(p *Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	if !errSinkNames[id.Name] {
		return "", false
	}
	fn, ok := p.ObjectOf(id).(*types.Func)
	if !ok {
		return "", false
	}
	res := fn.Type().(*types.Signature).Results()
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return fn.Name(), true
		}
	}
	return "", false
}
