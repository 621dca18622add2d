package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// GoLifecycle: every `go` statement must reach a cancellation path through
// the call graph, not merely contain one syntactically. A goroutine that
// blocks on a channel — in its own literal body, or a few calls deep in a
// helper — with no ctx.Done select, done-channel receive, closable-range or
// WaitGroup balance anywhere in its reachable body outlives every batch that
// spawned it; across Enumerate calls in a long-lived server those stack up
// until the scheduler drowns.
//
// The reachable body is the goroutine's own package: summaries propagate
// over calls between functions declared in the package (test files
// included) and stop at its boundary, so the verdict on a `go` statement
// never depends on which other packages happen to be in the load. A callee
// in another package neither blocks nor cancels on the spawner's behalf — a
// select on some private channel deep inside it (cluster.Worker.Close's
// drain wait) is no exit path for the goroutine that calls it.
//
// Accepted lifecycle paths, anywhere in the spawned body or any function of
// its package it (transitively) calls:
//
//   - a select with a case receiving from a context's Done() channel or
//     from a done-style channel (element type struct{}), or with a default;
//   - ranging over a channel (terminates when the producer closes);
//   - a direct receive from a struct{}-element channel (a blocking wait for
//     the done signal is itself the termination path);
//   - a sync.WaitGroup.Done call (the goroutine is joinable: its lifetime
//     is balanced against a Wait).
//
// A goroutine is examined at all only when it (transitively) performs a
// blocking channel operation outside defer statements — pure computation
// needs no lifecycle.
var GoLifecycle = &Analyzer{
	Name: "golifecycle",
	Doc: "every go statement whose goroutine blocks on channels must reach " +
		"a cancellation path (ctx.Done, done channel, closable range, or " +
		"WaitGroup balance) through its package's call graph",
	Run: runGoLifecycle,
}

// lifecycleInfo holds the package-local summaries: whether a function
// (transitively) blocks on channels, and whether it (transitively) reaches
// an accepted cancellation path. Functions are keyed by their generic
// origin, so calls of instantiations resolve to the declaration.
type lifecycleInfo struct {
	blocks  map[*types.Func]bool
	cancels map[*types.Func]bool
}

func runGoLifecycle(pass *Pass) error {
	tinfo := pass.Pkg.Info
	info := buildLifecycleInfo(pass.Pkg)
	buffered := bufferedChanVars(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				blocks, why := literalBlocks(tinfo, lit, info, buffered)
				if !blocks {
					return true
				}
				if literalCancels(tinfo, lit, info) {
					return true
				}
				pass.Reportf(gs.Pos(),
					"goroutine blocks on %s with no reachable cancellation path (no ctx.Done/done-channel select, closable range, or WaitGroup balance anywhere it calls)",
					why)
				return true
			}
			// A named target outside the package (or a dynamic one) has no
			// summary: stay silent rather than guess.
			callee := calleeOf(tinfo, gs.Call)
			if callee == nil || !info.blocks[callee.Origin()] || info.cancels[callee.Origin()] {
				return true
			}
			pass.Reportf(gs.Pos(),
				"goroutine runs %s, which blocks on channels with no reachable cancellation path (no ctx.Done/done-channel select, closable range, or WaitGroup balance in anything it calls)",
				callee.FullName())
			return true
		})
	}
	return nil
}

// buildLifecycleInfo seeds each function of pkg with its own syntax and
// propagates callee → caller over the package's own calls to fixpoint.
func buildLifecycleInfo(pkg *Package) *lifecycleInfo {
	info := &lifecycleInfo{
		blocks:  make(map[*types.Func]bool),
		cancels: make(map[*types.Func]bool),
	}
	fns := packageFuncs(pkg)
	callees := make(map[*types.Func][]*types.Func, len(fns))
	for _, fn := range fns {
		info.blocks[fn.obj] = bodyBlocksOnChans(pkg.Info, fn.decl.Body)
		info.cancels[fn.obj] = bodyHasLifecyclePath(pkg.Info, fn.decl.Body)
	}
	for _, fn := range fns {
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if c := calleeOf(pkg.Info, call); c != nil {
					if _, local := info.blocks[c.Origin()]; local {
						callees[fn.obj] = append(callees[fn.obj], c.Origin())
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, c := range callees[fn.obj] {
				if info.blocks[c] && !info.blocks[fn.obj] {
					info.blocks[fn.obj], changed = true, true
				}
				if info.cancels[c] && !info.cancels[fn.obj] {
					info.cancels[fn.obj], changed = true, true
				}
			}
		}
	}
	return info
}

// literalBlocks reports whether the go-literal blocks on channels: captured
// channel pumps in its own body, or a call to a function that transitively
// blocks. The returned description feeds the diagnostic.
func literalBlocks(tinfo *types.Info, lit *ast.FuncLit, info *lifecycleInfo, buffered map[*types.Var]bool) (bool, string) {
	if captured := capturedChannelOps(tinfo, lit, buffered); len(captured) > 0 {
		return true, "captured channel " + strings.Join(captured, ", ")
	}
	blockingCallee := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if blockingCallee != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeOf(tinfo, call); callee != nil && info.blocks[callee.Origin()] {
			blockingCallee = callee.FullName()
		}
		return true
	})
	if blockingCallee != "" {
		return true, "channels inside " + blockingCallee
	}
	return false, ""
}

// literalCancels reports whether the go-literal reaches a lifecycle path:
// syntactically in its body, or inside any function it calls.
func literalCancels(tinfo *types.Info, lit *ast.FuncLit, info *lifecycleInfo) bool {
	if bodyHasLifecyclePath(tinfo, lit.Body) {
		return true
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeOf(tinfo, call); callee != nil && info.cancels[callee.Origin()] {
				found = true
			}
		}
		return true
	})
	return found
}

// bodyBlocksOnChans reports whether the body performs a blocking channel
// operation — send, receive, channel range, or a select without a default —
// outside defer statements. Receives from done-style channels do not count
// (they are the termination idiom, handled as a lifecycle path), and
// nested function literals are the spawn sites' own problem.
func bodyBlocksOnChans(info *types.Info, body *ast.BlockStmt) bool {
	blocks := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if blocks {
				return false
			}
			switch m := m.(type) {
			case *ast.DeferStmt:
				return false // exit-time cleanup
			case *ast.FuncLit:
				if n != m {
					return false // separate lifetime
				}
			case *ast.SendStmt:
				blocks = true
			case *ast.RangeStmt:
				if tv, ok := info.Types[m.X]; ok && tv.Type != nil && isChanType(tv.Type) {
					blocks = true
				}
			case *ast.SelectStmt:
				hasDefault := false
				for _, cl := range m.Body.List {
					if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					blocks = true
				}
			case *ast.UnaryExpr:
				if m.Op.String() == "<-" {
					if tv, ok := info.Types[m.X]; ok && tv.Type != nil && isDoneChan(tv.Type) {
						return true // waiting for done is a termination path
					}
					if isDoneCall(info, m.X) {
						return true
					}
					blocks = true
				}
			}
			return !blocks
		})
	}
	walk(body)
	return blocks
}

// bodyHasLifecyclePath reports whether the body syntactically contains an
// accepted lifecycle construct: the PR 2 cancellation shapes plus
// sync.WaitGroup.Done (the join-balance idiom).
func bodyHasLifecyclePath(info *types.Info, body *ast.BlockStmt) bool {
	if hasCancellationPath(info, &ast.FuncLit{Body: body}) {
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if tv, ok := info.Types[sel.X]; ok && isNamed(tv.Type, "sync", "WaitGroup") {
			found = true
		}
		return true
	})
	return found
}

// bufferedChanVars records the channel variables initialised with
// make(chan T, n) for a constant n >= 1, per package. A single send to such
// a channel can never block, which is the test idiom
// `done := make(chan error, 1); go func() { done <- f() }()` — the
// goroutine completes unconditionally, so it needs no lifecycle path.
func bufferedChanVars(pkg *Package) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	record := func(name ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(name).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pkg.Info.Defs[id].(*types.Var)
		if !ok {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return
		}
		if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fid.Name != "make" {
			return
		}
		if !isChanType(pkg.Info.Types[call].Type) {
			return
		}
		if tv, ok := pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil {
			if n, ok := constant.Int64Val(tv.Value); ok && n >= 1 {
				out[v] = true
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						record(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// capturedChannelOps lists (by name) the captured channels the literal
// blocks on outside defer statements. Sends that provably cannot block are
// exempt: a single send (outside any loop) to a channel made with a
// constant buffer of at least one.
func capturedChannelOps(info *types.Info, lit *ast.FuncLit, buffered map[*types.Var]bool) []string {
	// Count the literal's sends per channel and whether any sits in a loop:
	// only a lone, loop-free send is covered by a one-slot buffer.
	sendCount := make(map[*types.Var]int)
	sendInLoop := make(map[*types.Var]bool)
	var countSends func(n ast.Node, inLoop bool)
	countSends = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Body != nil {
					countSends(m.Body, true)
				}
				return false
			case *ast.RangeStmt:
				if m.Body != nil {
					countSends(m.Body, true)
				}
				return false
			case *ast.SendStmt:
				if v := usedVar(info, m.Chan); v != nil {
					sendCount[v]++
					if inLoop {
						sendInLoop[v] = true
					}
				}
			}
			return true
		})
	}
	countSends(lit.Body, false)
	isCaptured := func(e ast.Expr) (*types.Var, bool) {
		v := usedVar(info, e)
		if v == nil || !isChanType(v.Type()) {
			return nil, false
		}
		// Captured: declared outside the literal's extent. Parameters and
		// locals of the literal are its own lifetime to manage.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil, false
		}
		return v, true
	}
	seen := make(map[*types.Var]bool)
	var names []string
	add := func(v *types.Var) {
		if !seen[v] {
			seen[v] = true
			names = append(names, v.Name())
		}
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				return false // exit-time cleanup, out of scope
			case *ast.SendStmt:
				if v, ok := isCaptured(m.Chan); ok {
					if buffered[v] && sendCount[v] == 1 && !sendInLoop[v] {
						return true // one send, one free slot: never blocks
					}
					add(v)
				}
			case *ast.UnaryExpr:
				if m.Op.String() == "<-" {
					if v, ok := isCaptured(m.X); ok {
						// A bare receive from a struct{} channel is a wait
						// for a done signal, not a pump — the accepted
						// termination idiom, never a finding.
						if !isDoneChan(v.Type()) {
							add(v)
						}
					}
				}
			}
			return true
		})
	}
	walk(lit.Body)
	return names
}

// isDoneChan reports whether t is a channel of struct{} (the done-channel
// convention).
func isDoneChan(t types.Type) bool {
	ch, ok := types.Unalias(t).Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// hasCancellationPath reports whether the literal body contains any accepted
// termination mechanism.
func hasCancellationPath(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && isChanType(tv.Type) {
				found = true // terminates when the channel is closed
				return false
			}
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				comm, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				if comm.Comm == nil {
					found = true // default case: non-blocking
					return false
				}
				if recvChan := commRecvChan(comm.Comm); recvChan != nil {
					if isDoneCall(info, recvChan) {
						found = true
						return false
					}
					if tv, ok := info.Types[recvChan]; ok && isDoneChan(tv.Type) {
						found = true
						return false
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if isDoneCall(info, n.X) {
					found = true
					return false
				}
				if tv, ok := info.Types[n.X]; ok && isDoneChan(tv.Type) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// commRecvChan extracts the channel expression of a receive comm clause.
func commRecvChan(s ast.Stmt) ast.Expr {
	var rhs ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		rhs = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
	}
	u, ok := ast.Unparen(rhs).(*ast.UnaryExpr)
	if !ok || u.Op.String() != "<-" {
		return nil
	}
	return u.X
}

// isDoneCall reports whether e is a call of a method named Done returning a
// receive-only channel — context.Context.Done and look-alikes.
func isDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != "Done" {
		return false
	}
	if tv, ok := info.Types[call]; ok {
		return isChanType(tv.Type)
	}
	return false
}
