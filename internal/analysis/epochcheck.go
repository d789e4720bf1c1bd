package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// epochBumpMethods are method names recognized as epoch bumps across
// package boundaries: network code flips port usability and invalidates
// the fib live-hop memo through fib's exported method, whose body this
// per-package analyzer cannot see.
var epochBumpMethods = map[string]bool{
	"InvalidateFlowCache": true,
}

// EpochCheck enforces the memo invalidation contract: fib.Lookup memoizes
// each prefix's live next-hop set and revalidates it only by epoch
// comparison, so any state a memoized set depends on must bump the epoch
// when it changes — or a stale set silently bypasses the F²Tree fallback
// and corrupts the recovery curves.
//
// The contract is declared in the code itself: the epoch counter field is
// marked `//f2tree:epoch`, and every field whose mutation must be followed
// by a bump is marked `//f2tree:epochguarded` (fib's levels, their key and
// entry arrays and the per-source hop slots; network's believed port
// states). The analyzer runs a
// simple intraprocedural dataflow over each function (and function
// literal): a write to a guarded field makes the path dirty; an epoch
// increment, an InvalidateFlowCache call, or a call to a same-package
// function marked `//f2tree:epochbump` cleans it; a return (or fall-off)
// on a dirty path is a finding, reported at the unbumped write. Branches
// merge pessimistically and loop bodies are analyzed once, so a bump can
// never be assumed that does not dominate the exit.
//
// Construction-time writes (no cache exists yet) and helpers whose every
// caller bumps are the audited escape hatch: `//f2tree:noepoch <reason>`
// on the write or the enclosing function declaration.
var EpochCheck = &Analyzer{
	Name: "epochcheck",
	Doc:  "verifies every mutation of //f2tree:epochguarded state is followed by a cache-epoch bump on all return paths",
	Run:  runEpochCheck,
}

func runEpochCheck(pass *Pass) error {
	guarded, epochs, bumpFns := epochMarkers(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			declSuppressed := pass.marked(file, fd.Pos(), VerbNoEpoch)
			if declSuppressed && !pass.KeepSuppressed {
				continue
			}
			ec := &epochChecker{
				pass: pass, file: file,
				guarded: guarded, epochs: epochs, bumpFns: bumpFns,
				reported: make(map[token.Pos]bool),
			}
			if declSuppressed {
				// Audit mode: analyze the skipped function anyway, anchoring
				// any finding at the declaration so the decl-level directive
				// is matched live (and flagged stale when the body is clean).
				ec.reportPos = fd.Pos()
			}
			ec.checkFunc(fd.Body)
		}
	}
	return nil
}

// epochMarkers collects the marked field objects and bump functions.
func epochMarkers(pass *Pass) (guarded, epochs map[*types.Var]bool, bumpFns map[*types.Func]bool) {
	guarded = make(map[*types.Var]bool)
	epochs = make(map[*types.Var]bool)
	bumpFns = make(map[*types.Func]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					for _, name := range field.Names {
						v, ok := pass.TypesInfo.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if pass.marked(file, name.Pos(), VerbEpochGuarded) {
							guarded[v] = true
						}
						if pass.marked(file, name.Pos(), VerbEpoch) {
							epochs[v] = true
						}
					}
				}
			case *ast.FuncDecl:
				if fn, ok := pass.TypesInfo.Defs[x.Name].(*types.Func); ok {
					if pass.marked(file, x.Pos(), VerbEpochBump) {
						bumpFns[fn] = true
					}
				}
			}
			return true
		})
	}
	return guarded, epochs, bumpFns
}

// epochChecker runs the dataflow over one function.
type epochChecker struct {
	pass    *Pass
	file    *ast.File
	guarded map[*types.Var]bool
	epochs  map[*types.Var]bool
	bumpFns map[*types.Func]bool
	// reported dedups diagnostics when several return paths expose the
	// same unbumped write.
	reported map[token.Pos]bool
	// deferredBump records that a `defer t.bump()` was seen: every exit
	// reached after that statement is cleaned by the deferred call.
	deferredBump bool
	// reportPos, when set, overrides the reported position — used in audit
	// mode to anchor a decl-suppressed function's findings at its decl.
	reportPos token.Pos
}

// flowState tracks one path: the position of the most recent guarded
// write not yet followed by a bump (NoPos = clean).
type flowState struct {
	dirty    bool
	writePos token.Pos
}

func merge(a, b flowState) flowState {
	if a.dirty {
		return a
	}
	return b
}

func (ec *epochChecker) checkFunc(body *ast.BlockStmt) {
	// Nested function literals get their own defer scope.
	saved := ec.deferredBump
	ec.deferredBump = false
	out := ec.walkStmts(body.List, flowState{})
	ec.atExit(out)
	ec.deferredBump = saved
}

// atExit reports a path that leaves the function dirty.
func (ec *epochChecker) atExit(s flowState) {
	if !s.dirty || ec.deferredBump {
		return
	}
	pos := s.writePos
	if ec.reportPos != token.NoPos {
		pos = ec.reportPos
	}
	if ec.reported[pos] {
		return
	}
	ec.reported[pos] = true
	ec.pass.ReportSuppressible(ec.file, pos, VerbNoEpoch,
		"write to //f2tree:epochguarded state can reach a return without a cache-epoch bump; bump the epoch (or call InvalidateFlowCache) on every path, or annotate //f2tree:noepoch <reason>")
}

// walkStmts processes a statement list sequentially, returning the state
// of the fall-through path. Paths that return are checked at the return.
func (ec *epochChecker) walkStmts(stmts []ast.Stmt, in flowState) flowState {
	s := in
	for _, st := range stmts {
		s = ec.walkStmt(st, s)
	}
	return s
}

func (ec *epochChecker) walkStmt(st ast.Stmt, in flowState) flowState {
	switch x := st.(type) {
	case *ast.ReturnStmt:
		ec.atExit(ec.applyStmtEffects(x, in))
		return flowState{} // unreachable after return
	case *ast.BlockStmt:
		return ec.walkStmts(x.List, in)
	case *ast.IfStmt:
		s := in
		if x.Init != nil {
			s = ec.walkStmt(x.Init, s)
		}
		s = ec.applyExprEffects(x.Cond, s)
		thenOut := ec.walkStmts(x.Body.List, s)
		elseOut := s
		if x.Else != nil {
			elseOut = ec.walkStmt(x.Else, s)
		}
		return merge(thenOut, elseOut)
	case *ast.ForStmt:
		s := in
		if x.Init != nil {
			s = ec.walkStmt(x.Init, s)
		}
		if x.Cond != nil {
			s = ec.applyExprEffects(x.Cond, s)
		}
		bodyOut := ec.walkStmts(x.Body.List, s)
		if x.Post != nil {
			bodyOut = ec.walkStmt(x.Post, bodyOut)
		}
		// The loop may run zero times; and a dirty body exit stays dirty
		// (a bump earlier in the body does not clean a later iteration's
		// write — pessimistic by construction).
		return merge(s, bodyOut)
	case *ast.RangeStmt:
		s := ec.applyExprEffects(x.X, in)
		bodyOut := ec.walkStmts(x.Body.List, s)
		return merge(s, bodyOut)
	case *ast.SwitchStmt:
		s := in
		if x.Init != nil {
			s = ec.walkStmt(x.Init, s)
		}
		if x.Tag != nil {
			s = ec.applyExprEffects(x.Tag, s)
		}
		out := flowState{}
		hasDefault := false
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			out = merge(out, ec.walkStmts(cc.Body, s))
		}
		if !hasDefault {
			out = merge(out, s)
		}
		return out
	case *ast.TypeSwitchStmt:
		s := in
		if x.Init != nil {
			s = ec.walkStmt(x.Init, s)
		}
		out := flowState{}
		hasDefault := false
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			out = merge(out, ec.walkStmts(cc.Body, s))
		}
		if !hasDefault {
			out = merge(out, s)
		}
		return out
	case *ast.SelectStmt:
		out := flowState{}
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			out = merge(out, ec.walkStmts(cc.Body, in))
		}
		return out
	case *ast.DeferStmt:
		// A deferred bump runs at exit: every return encountered after
		// this statement (sequential walk order) is covered by it, so the
		// checker-level flag — not the path state — records it.
		if ec.isBumpCall(x.Call) {
			ec.deferredBump = true
			return flowState{}
		}
		return in
	case *ast.LabeledStmt:
		return ec.walkStmt(x.Stmt, in)
	default:
		return ec.applyStmtEffects(st, in)
	}
}

// applyStmtEffects folds one simple statement's writes and bumps into the
// state. Function literals inside are analyzed independently.
func (ec *epochChecker) applyStmtEffects(st ast.Stmt, in flowState) flowState {
	s := in
	ast.Inspect(st, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Independent flow: the literal runs at some other time.
			ec.checkFunc(x.Body)
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ec.isEpochRef(lhs) {
					s = flowState{}
				} else if pos, ok := ec.guardedWrite(lhs); ok {
					if !s.dirty {
						s = flowState{dirty: true, writePos: pos}
					}
				}
			}
		case *ast.IncDecStmt:
			if ec.isEpochRef(x.X) {
				s = flowState{}
			} else if pos, ok := ec.guardedWrite(x.X); ok {
				if !s.dirty {
					s = flowState{dirty: true, writePos: pos}
				}
			}
		case *ast.CallExpr:
			if ec.isBumpCall(x) {
				s = flowState{}
				return true
			}
			// delete(m, k) and copy(dst, src) write their first argument.
			if id, ok := x.Fun.(*ast.Ident); ok && isBuiltin(ec.pass, id) {
				if (id.Name == "delete" || id.Name == "copy") && len(x.Args) > 0 {
					if pos, ok := ec.guardedWrite(x.Args[0]); ok && !s.dirty {
						s = flowState{dirty: true, writePos: pos}
					}
				}
			}
		}
		return true
	})
	return s
}

// applyExprEffects folds an expression's effects (bump calls in
// conditions, writes via builtins) into the state.
func (ec *epochChecker) applyExprEffects(e ast.Expr, in flowState) flowState {
	return ec.applyStmtEffects(&ast.ExprStmt{X: e}, in)
}

// guardedWrite reports whether the expression writes (or indexes into) a
// marked guarded field, returning the position to report.
func (ec *epochChecker) guardedWrite(e ast.Expr) (token.Pos, bool) {
	var found token.Pos
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj, ok := ec.pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && ec.guarded[obj] {
			found = sel.Pos()
			return false
		}
		return true
	})
	return found, found != token.NoPos
}

// isEpochRef reports whether the expression resolves to a marked epoch
// counter field.
func (ec *epochChecker) isEpochRef(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := ec.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	return ok && ec.epochs[obj]
}

// isBumpCall reports whether the call is a recognized epoch bump: a
// method named InvalidateFlowCache (any receiver) or a same-package
// function marked //f2tree:epochbump.
func (ec *epochChecker) isBumpCall(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		if epochBumpMethods[f.Sel.Name] {
			return true
		}
		if fn, ok := ec.pass.TypesInfo.Uses[f.Sel].(*types.Func); ok && ec.bumpFns[fn] {
			return true
		}
	case *ast.Ident:
		if fn, ok := ec.pass.TypesInfo.Uses[f].(*types.Func); ok && ec.bumpFns[fn] {
			return true
		}
	}
	return false
}
