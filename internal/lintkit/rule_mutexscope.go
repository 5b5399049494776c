// Rule mutexscope: nothing blocking runs under a store or shard mutex.
//
// The group-commit discipline (DESIGN.md §3, PR 1/2) is precise about what
// a shard mutex may cover: index updates and the in-order WAL append into
// the page cache — both microsecond work. The expensive, blocking work —
// fdatasync, directory fsync, network I/O, sleeping, waiting on other
// goroutines, channel operations — happens outside the mutex, or every
// writer on the shard stalls behind one flush. The rule walks each
// function tracking which mutexes may be held (sync.Mutex / sync.RWMutex
// Lock/RLock by canonical receiver expression) and reports blocking
// operations encountered while the held set is non-empty.
//
// Deliberate exceptions are part of the design and handled structurally:
// mutexes named syncMu exist precisely to serialize fdatasync outside `mu`
// and are exempt; `go` statements start with an empty held set (a new
// goroutine does not inherit the launcher's locks); and the rare
// freeze-the-world path (sirendb.Seal) documents itself with
// //lint:ignore mutexscope.
//
// The walk is a structural may-held analysis, not a CFG: a mutex counts as
// held past a merge point when any fall-through arm kept it, arms that end
// in return/break/continue/panic do not fall through and are excluded, a
// loop body that leaves a mutex locked (the lock-all-shards-with-deferred-
// unlock pattern) leaves it held after the loop, and `defer mu.Unlock()`
// keeps the mutex held for the remainder of the function — which is
// exactly the semantics at run time.
package lintkit

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

type mutexScope struct{}

func (mutexScope) Name() string { return "mutexscope" }
func (mutexScope) Doc() string {
	return "no blocking operations (fsync, net, sleep, channel ops, waits) while a mutex is held"
}

func (mutexScope) Run(p *Pass) {
	if isMainPkg(p.Pkg) || isExample(p.Pkg) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &mutexWalker{p: p}
			w.stmts(fd.Body.List, held{})
		}
	}
}

// held maps canonical mutex expressions ("s.mu", "sh.store.mu") to the
// position of the Lock call that acquired them.
type held map[string]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// union merges may-held sets: after a merge point a mutex counts as held
// when any fall-through arm kept it.
func union(a, b held) held {
	out := a.clone()
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

type mutexWalker struct{ p *Pass }

// stmts walks a statement list with the held set at entry. It returns the
// held set at fall-through and whether the list terminates (ends in
// return/branch/panic), in which case it does not fall through at all.
func (w *mutexWalker) stmts(list []ast.Stmt, h held) (held, bool) {
	for _, s := range list {
		var term bool
		h, term = w.stmt(s, h)
		if term {
			// Anything after a terminating statement is unreachable.
			return h, true
		}
	}
	return h, false
}

func (w *mutexWalker) stmt(s ast.Stmt, h held) (held, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, locks, ok := w.lockOp(s.X); ok {
			if key == "" {
				return h, false // exempt (syncMu) or untrackable receiver
			}
			h = h.clone()
			if locks {
				h[key] = s.Pos()
			} else {
				delete(h, key)
			}
			return h, false
		}
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := w.p.ObjectOf(id).(*types.Builtin); isBuiltin {
					w.exprs(h, call.Args...)
					return h, true
				}
			}
		}
		w.exprs(h, s.X)

	case *ast.AssignStmt:
		w.exprs(h, s.Rhs...)
		w.exprs(h, s.Lhs...)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(h, vs.Values...)
				}
			}
		}

	case *ast.ReturnStmt:
		w.exprs(h, s.Results...)
		return h, true

	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path; fallthrough
		// continues into the next clause, which is walked independently.
		return h, s.Tok != token.FALLTHROUGH

	case *ast.IncDecStmt:
		w.exprs(h, s.X)

	case *ast.SendStmt:
		if len(h) > 0 {
			w.report(s.Pos(), "channel send", h)
		}
		w.exprs(h, s.Chan, s.Value)

	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return: the mutex stays held for
		// every remaining statement, so the held set is unchanged. Other
		// deferred calls run after this walk's knowledge ends; only their
		// argument expressions are evaluated here and now.
		if _, _, ok := w.lockOp(s.Call); !ok {
			w.exprs(h, s.Call.Args...)
		}

	case *ast.GoStmt:
		// A new goroutine holds none of the launcher's locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, held{})
		}
		w.exprs(h, s.Call.Args...)

	case *ast.BlockStmt:
		return w.stmts(s.List, h)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, h)

	case *ast.IfStmt:
		if s.Init != nil {
			h, _ = w.stmt(s.Init, h)
		}
		w.exprs(h, s.Cond)
		bodyExit, bodyTerm := w.stmts(s.Body.List, h.clone())
		elseExit, elseTerm := h.clone(), false
		if s.Else != nil {
			elseExit, elseTerm = w.stmt(s.Else, elseExit)
		}
		switch {
		case bodyTerm && elseTerm:
			return h, true
		case bodyTerm:
			return elseExit, false
		case elseTerm:
			return bodyExit, false
		}
		return union(bodyExit, elseExit), false

	case *ast.ForStmt:
		if s.Init != nil {
			h, _ = w.stmt(s.Init, h)
		}
		w.exprs(h, s.Cond)
		bodyExit, bodyTerm := w.stmts(s.Body.List, h.clone())
		if s.Post != nil {
			bodyExit, _ = w.stmt(s.Post, bodyExit)
		}
		if bodyTerm {
			return h, false
		}
		// A lock the body leaves held (deferred unlock) is held after the
		// loop too.
		return union(h, bodyExit), false

	case *ast.RangeStmt:
		if len(h) > 0 {
			if t := w.p.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					w.report(s.Pos(), "range over channel", h)
				}
			}
		}
		w.exprs(h, s.X)
		bodyExit, bodyTerm := w.stmts(s.Body.List, h.clone())
		if bodyTerm {
			return h, false
		}
		return union(h, bodyExit), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			h, _ = w.stmt(s.Init, h)
		}
		w.exprs(h, s.Tag)
		return w.clauses(s.Body, h)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			h, _ = w.stmt(s.Init, h)
		}
		return w.clauses(s.Body, h)

	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(h) > 0 {
			w.report(s.Pos(), "select without default", h)
		}
		exit := held{}
		fellThrough := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			// With a default clause the comm ops are non-blocking by
			// construction; without one the select itself was reported.
			// Either way only the clause bodies need walking.
			clauseExit, clauseTerm := w.stmts(cc.Body, h.clone())
			if !clauseTerm {
				exit = union(exit, clauseExit)
				fellThrough = true
			}
		}
		if !fellThrough {
			if len(s.Body.List) > 0 {
				return h, true // every clause terminates
			}
			return h, false
		}
		return exit, false

	default:
		// EmptyStmt and friends: no expressions, no lock effect.
	}
	return h, false
}

// clauses walks switch/type-switch case bodies. The exit unions every
// fall-through clause plus the no-case-matched path when there is no
// default clause.
func (w *mutexWalker) clauses(body *ast.BlockStmt, h held) (held, bool) {
	exit := held{}
	hasDefault := false
	fellThrough := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		w.exprs(h, cc.List...)
		clauseExit, clauseTerm := w.stmts(cc.Body, h.clone())
		if !clauseTerm {
			exit = union(exit, clauseExit)
			fellThrough = true
		}
	}
	if !hasDefault {
		exit = union(exit, h)
		fellThrough = true
	}
	if !fellThrough && len(body.List) > 0 {
		return h, true
	}
	return exit, false
}

// exprs scans expressions for blocking operations under the current held
// set. Function literals encountered as call arguments are walked with the
// same held set (they may run synchronously under the lock); their bodies
// are excluded from the flat scan.
func (w *mutexWalker) exprs(h held, es ...ast.Expr) {
	var lits []*ast.FuncLit
	for _, e := range es {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				lits = append(lits, n)
				return false
			case *ast.CallExpr:
				if len(h) > 0 {
					if desc := w.blockingCall(n); desc != "" {
						w.report(n.Pos(), desc, h)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && len(h) > 0 {
					w.report(n.Pos(), "channel receive", h)
				}
			}
			return true
		})
	}
	for _, lit := range lits {
		w.stmts(lit.Body.List, h.clone())
	}
}

func (w *mutexWalker) report(pos token.Pos, what string, h held) {
	key := ""
	for k := range h {
		if key == "" || k < key {
			key = k
		}
	}
	lockPos := w.p.Fset.Position(h[key])
	w.p.Reportf(pos, "%s while %s is held (locked at line %d): blocking work must not run under a store/shard mutex",
		what, key, lockPos.Line)
}

// lockOp recognizes direct Lock/RLock/Unlock/RUnlock calls on sync mutexes
// (including promoted embedded ones). It returns ok=true for any such call;
// key is "" when the mutex is exempt (named syncMu — it exists to serialize
// flushes outside mu) or the receiver is not a stable ident/selector chain.
func (w *mutexWalker) lockOp(e ast.Expr) (key string, locks, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	fn, isFn := w.p.ObjectOf(sel.Sel).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	key = renderExpr(sel.X)
	if key == "syncMu" || strings.HasSuffix(key, ".syncMu") {
		key = ""
	}
	return key, locks, true
}

// blockingCall classifies a call as blocking-under-lock, returning a
// description or "".
func (w *mutexWalker) blockingCall(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := w.p.ObjectOf(fun).(*types.Func); ok {
			if fn.Name() == "fdatasync" || fn.Name() == "fsyncDir" {
				return fn.Name()
			}
		}
	case *ast.SelectorExpr:
		fn, ok := w.p.ObjectOf(fun.Sel).(*types.Func)
		if !ok {
			return ""
		}
		name := fn.Name()
		pkg := ""
		if fn.Pkg() != nil {
			pkg = fn.Pkg().Path()
		}
		sig := fn.Type().(*types.Signature)
		isMethod := sig.Recv() != nil
		switch {
		case name == "fdatasync" || name == "fsyncDir":
			return name
		case pkg == "time" && name == "Sleep":
			return "time.Sleep"
		case pkg == "log" && !isMethod:
			return "log." + name
		case pkg == "sync" && name == "Wait":
			return renderExpr(fun.X) + ".Wait"
		case isMethod && name == "Sync":
			return "Sync (durability flush)"
		case pkg == "net" && !isMethod &&
			(name == "Dial" || name == "DialTimeout" || name == "Listen" || name == "ListenPacket" || name == "ListenUDP" || name == "ListenTCP"):
			return "net." + name
		case pkg == "net" && isMethod &&
			(name == "Read" || name == "Write" || name == "Accept" || name == "ReadFrom" || name == "WriteTo" ||
				name == "ReadFromUDP" || name == "WriteToUDP" || name == "ReadMsgUDP" || name == "WriteMsgUDP"):
			return "network I/O (" + name + ")"
		case pkg == "net/http" &&
			(name == "Do" || name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
			return "http." + name
		}
	}
	return ""
}

// renderExpr canonicalizes an ident/selector chain ("s.mu", "sh.store.mu");
// anything else renders as "" and is not tracked.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := renderExpr(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return renderExpr(e.X)
	}
	return ""
}
