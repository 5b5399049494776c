// Rule nodefaultmux: library packages keep their hands off process-global
// HTTP and expvar state.
//
// The serving tier's coexistence contract (DESIGN.md §8, PR 5) is that
// internal/server builds its own *http.ServeMux and its own unregistered
// expvar.Map, so a host process — siren-receiver with -serve-addr, an
// embedding test, a future replica binary — can mount it wherever it
// wants and run two of them side by side. Registering on
// http.DefaultServeMux or through expvar.Publish/New* from a library
// package breaks that: second registration panics, and the global mux
// becomes load-bearing behind the host's back. Only package main may make
// process-global decisions.
package lintkit

import (
	"go/ast"
	"go/types"
)

type noDefaultMux struct{}

func (noDefaultMux) Name() string { return "nodefaultmux" }
func (noDefaultMux) Doc() string {
	return "forbid http.DefaultServeMux, http.Handle/HandleFunc, global expvar registration outside package main, and blank net/http/pprof imports anywhere"
}

func (noDefaultMux) Run(p *Pass) {
	// The blank pprof import is forbidden even in package main: its only
	// effect is init-time registration on http.DefaultServeMux, which every
	// siren binary deliberately never serves (each owns a dedicated mux).
	// A main that wants profiling imports the package normally and mounts
	// pprof.Index/Cmdline/Profile/Symbol/Trace on its own mux, so the
	// handlers are visible, gated by a flag, and on the listener the
	// operator chose.
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			if imp.Name != nil && imp.Name.Name == "_" && imp.Path.Value == `"net/http/pprof"` {
				p.Reportf(imp.Pos(),
					"blank net/http/pprof import in package %s registers profiling on the global DefaultServeMux: import it normally and mount its handler funcs on a local mux",
					p.Pkg.Types.Name())
			}
		}
	}
	if isMainPkg(p.Pkg) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.ObjectOf(sel.Sel)
			if v, ok := obj.(*types.Var); ok && v.Name() == "DefaultServeMux" &&
				v.Pkg() != nil && v.Pkg().Path() == "net/http" {
				p.Reportf(sel.Pos(),
					"http.DefaultServeMux in library package %s: serve on a locally built mux so hosts control mounting",
					p.Pkg.Types.Name())
				return true
			}
			// Only the package-level functions are global registration;
			// (*ServeMux).Handle on a locally built mux is exactly what the
			// contract asks for, so require a nil receiver.
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil && fn.Pkg() != nil {
				name, pkg := fn.Name(), fn.Pkg().Path()
				switch {
				case pkg == "net/http" && (name == "Handle" || name == "HandleFunc"):
					p.Reportf(sel.Pos(),
						"http.%s registers on the global DefaultServeMux from library package %s: use a local *http.ServeMux",
						name, p.Pkg.Types.Name())
				case pkg == "expvar" && (name == "Publish" || name == "NewInt" ||
					name == "NewFloat" || name == "NewMap" || name == "NewString"):
					p.Reportf(sel.Pos(),
						"expvar.%s registers a process-global metric from library package %s: keep an unregistered expvar.Map and let the host publish it",
						name, p.Pkg.Types.Name())
				}
			}
			return true
		})
	}
}
