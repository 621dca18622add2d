package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockBalance enforces the mutex discipline of the cluster and core hot
// paths, one function body at a time:
//
//   - a mu.Lock() that is not immediately covered by defer mu.Unlock()
//     opens a manual critical section, and every path out of the enclosing
//     function — every return statement and the fall-through exit — must
//     release the lock first. A single early return that skips the unlock
//     deadlocks the next Lock() caller; in the coordinator that is every
//     other worker goroutine, the silent-stall failure mode the
//     fault-tolerance work guards against;
//   - no Lock while another lock is held in the same body. Two locks nested
//     in one order here and the other order elsewhere deadlock; the tree
//     keeps every critical section to one lock, so there is no
//     acquisition order to get wrong.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc: "a manual mu.Lock() (no defer mu.Unlock()) must be released on " +
		"every return path, and no Lock is taken while another lock is held",
	Run: runLockBalance,
}

func runLockBalance(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Every function body — declarations and literals — is checked as
		// its own scope with no locks held on entry; the statement walk
		// never descends into nested literals itself.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body != nil {
				lb := &lockChecker{pass: pass, info: info}
				exit, terminated := lb.block(body.List, lockState{})
				if !terminated {
					lb.reportHeld(exit, "function exit")
				}
			}
			return true
		})
	}
	return nil
}

// lockState maps a locked expression ("c.mu", "R:c.mu" for read locks) to
// the position of the Lock call that opened the critical section. A lock
// whose release is deferred stays under deferred+key until the function
// returns: held for the nesting rule, never leaked.
type lockState map[string]token.Pos

const deferred = "defer "

// lockName splits a state key into the locked expression and its verb.
func lockName(key string) (name, verb string) {
	name = strings.TrimPrefix(key, deferred)
	if rest, ok := strings.CutPrefix(name, "R:"); ok {
		return rest, "RLock"
	}
	return name, "Lock"
}

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type lockChecker struct {
	pass     *Pass
	info     *types.Info
	reported map[token.Pos]bool
}

// lockOp classifies a statement as a Lock/Unlock call on a sync.Mutex or
// sync.RWMutex and returns the state key; ok is false otherwise.
func (lb *lockChecker) lockOp(stmt ast.Stmt) (key string, acquire bool, pos token.Pos, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", false, 0, false
	}
	return lb.lockCall(es.X)
}

func (lb *lockChecker) lockCall(e ast.Expr) (key string, acquire bool, pos token.Pos, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, 0, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, 0, false
	}
	name := sel.Sel.Name
	var read bool
	switch name {
	case "Lock", "Unlock":
	case "RLock", "RUnlock":
		read = true
	default:
		return "", false, 0, false
	}
	tv, has := lb.info.Types[sel.X]
	if !has {
		return "", false, 0, false
	}
	if !isNamed(tv.Type, "sync", "Mutex") && !isNamed(tv.Type, "sync", "RWMutex") {
		return "", false, 0, false
	}
	key = types.ExprString(sel.X)
	if read {
		key = "R:" + key
	}
	return key, name == "Lock" || name == "RLock", call.Pos(), true
}

// deferredUnlock reports the key released when stmt is `defer x.Unlock()`.
func (lb *lockChecker) deferredUnlock(stmt ast.Stmt) (string, bool) {
	ds, isDefer := stmt.(*ast.DeferStmt)
	if !isDefer {
		return "", false
	}
	key, acquire, _, ok := lb.lockCall(ds.Call)
	if !ok || acquire {
		return "", false
	}
	return key, true
}

func (lb *lockChecker) reportHeld(state lockState, where string) {
	if lb.reported == nil {
		lb.reported = make(map[token.Pos]bool)
	}
	for key, pos := range state {
		if lb.reported[pos] || strings.HasPrefix(key, deferred) {
			continue
		}
		lb.reported[pos] = true
		name, verb := lockName(key)
		lb.pass.Reportf(pos,
			"%s.%s() is not immediately deferred and is not released before %s",
			name, verb, where)
	}
}

// reportNested flags an acquisition while the body already holds a lock.
func (lb *lockChecker) reportNested(key string, pos token.Pos, state lockState) {
	var held []string
	for k := range state {
		name, _ := lockName(k)
		held = append(held, name)
	}
	if len(held) == 0 {
		return
	}
	sort.Strings(held)
	name, verb := lockName(key)
	lb.pass.Reportf(pos,
		"%s.%s() while %s is held: nested locks taken in the other order elsewhere deadlock; release first, or take one lock",
		name, verb, strings.Join(held, ", "))
}

// block walks one statement list. state is mutated to the fall-through exit
// state; terminated reports that every path through the list returns (so
// the fall-through state is unreachable).
func (lb *lockChecker) block(stmts []ast.Stmt, state lockState) (lockState, bool) {
	for i := 0; i < len(stmts); i++ {
		stmt := stmts[i]
		for {
			ls, isLabeled := stmt.(*ast.LabeledStmt)
			if !isLabeled {
				break
			}
			stmt = ls.Stmt
		}
		if key, acquire, pos, ok := lb.lockOp(stmt); ok {
			if acquire {
				lb.reportNested(key, pos, state)
				// The canonical pairing: Lock immediately followed by the
				// matching defer Unlock covers every exit path at once.
				if i+1 < len(stmts) {
					if dkey, dok := lb.deferredUnlock(stmts[i+1]); dok && dkey == key {
						state[deferred+key] = pos
						i++
						continue
					}
				}
				state[key] = pos
			} else {
				delete(state, key)
				delete(state, deferred+key) // unlocked early, relocked before the defer runs
			}
			continue
		}
		if key, ok := lb.deferredUnlock(stmt); ok {
			// A later defer still guards every subsequent exit.
			if pos, held := state[key]; held {
				delete(state, key)
				state[deferred+key] = pos
			}
			continue
		}

		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			lb.reportHeld(state, "this return")
			return state, true
		case *ast.BranchStmt:
			// break/continue/goto leave the list; where they land is out of
			// scope for this intentionally simple walk, so stay silent
			// rather than guess.
			return state, true
		case *ast.BlockStmt:
			var term bool
			state, term = lb.block(s.List, state)
			if term {
				return state, true
			}
		case *ast.IfStmt:
			if s.Init != nil {
				state, _ = lb.block([]ast.Stmt{s.Init}, state)
			}
			thenExit, thenTerm := lb.block(s.Body.List, state.clone())
			elseExit, elseTerm := state.clone(), false
			if s.Else != nil {
				elseExit, elseTerm = lb.block([]ast.Stmt{s.Else}, state.clone())
			}
			if thenTerm && elseTerm {
				return state, true
			}
			state = merge(thenTerm, thenExit, elseTerm, elseExit)
		case *ast.ForStmt, *ast.RangeStmt:
			var bodyStmts []ast.Stmt
			switch l := s.(type) {
			case *ast.ForStmt:
				if l.Init != nil {
					state, _ = lb.block([]ast.Stmt{l.Init}, state)
				}
				bodyStmts = l.Body.List
			case *ast.RangeStmt:
				bodyStmts = l.Body.List
			}
			bodyExit, bodyTerm := lb.block(bodyStmts, state.clone())
			// After the loop the lock set is the union of "never entered"
			// and "body ran": a lock the body leaves held surfaces at the
			// next exit.
			state = merge(false, state, bodyTerm, bodyExit)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var clauses []ast.Stmt
			hasDefault := false
			switch sw := s.(type) {
			case *ast.SwitchStmt:
				if sw.Init != nil {
					state, _ = lb.block([]ast.Stmt{sw.Init}, state)
				}
				clauses = sw.Body.List
			case *ast.TypeSwitchStmt:
				clauses = sw.Body.List
			case *ast.SelectStmt:
				clauses = sw.Body.List
				hasDefault = true // a select blocks until some case runs
			}
			exits := make([]lockState, 0, len(clauses))
			allTerm := len(clauses) > 0
			for _, cl := range clauses {
				var body []ast.Stmt
				switch c := cl.(type) {
				case *ast.CaseClause:
					if c.List == nil {
						hasDefault = true
					}
					body = c.Body
				case *ast.CommClause:
					body = c.Body
				}
				exit, term := lb.block(body, state.clone())
				if !term {
					exits = append(exits, exit)
					allTerm = false
				}
			}
			if allTerm && hasDefault {
				return state, true
			}
			if !hasDefault {
				// A missing case falls through with the incoming state.
				exits = append(exits, state)
			}
			merged := lockState{}
			for _, e := range exits {
				for k, v := range e {
					merged[k] = v
				}
			}
			state = merged
		case *ast.GoStmt, *ast.DeferStmt:
			// Literal bodies are separate scopes, checked by the outer
			// Inspect; holding a lock across `go` or a non-unlock defer is
			// fine for the spawning path.
		}
	}
	return state, false
}

// merge unions the lock sets of the paths that can actually fall through.
func merge(aTerm bool, a lockState, bTerm bool, b lockState) lockState {
	switch {
	case aTerm && bTerm:
		return lockState{}
	case aTerm:
		return b
	case bTerm:
		return a
	}
	out := a.clone()
	for k, v := range b {
		out[k] = v
	}
	return out
}
