package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck flags mutable package-level state in simulation packages.
// The ROADMAP's scaling direction is a parallel-replica runner (many
// simulations of the same scenario sweep in one process); any package-level
// variable that is written after initialization is a data race waiting to
// happen there, and it already breaks replica independence today. State
// belongs on the Simulator/Network/Instance value that owns it.
//
// A package-level var is flagged when the package itself writes it outside
// its declaration: direct assignment, compound/element/field assignment,
// ++/--, taking its address (the callee may write through the pointer), or
// calling a pointer-receiver method on it. Never-written vars (sentinel
// errors, lookup tables populated in their declaration) are allowed —
// concurrent reads are safe. The audited escape hatch is
// `//f2tree:sharedstate <reason>` on or above the declaration.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "flags mutable package-level state in simulation packages that would race under a parallel-replica runner",
	Run:  runLockCheck,
}

func runLockCheck(pass *Pass) error {
	// Pass 1: collect package-level vars and their declaration sites.
	type declared struct {
		ident *ast.Ident
		file  *ast.File
	}
	vars := make(map[types.Object]declared)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						vars[obj] = declared{ident: name, file: file}
					}
				}
			}
		}
	}
	if len(vars) == 0 {
		return nil
	}

	// Pass 2: find writes to those vars anywhere in the package.
	written := make(map[types.Object]bool)
	markIfPkgVar := func(e ast.Expr) {
		root := rootIdent(e)
		if root == nil {
			return
		}
		obj := objectOf(pass, root)
		if _, ok := vars[obj]; ok {
			written[obj] = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markIfPkgVar(lhs)
				}
			case *ast.IncDecStmt:
				markIfPkgVar(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markIfPkgVar(x.X)
				}
			case *ast.SelectorExpr:
				// A pointer-receiver method call implicitly takes the
				// address of its operand.
				if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.MethodVal {
					if fn, ok := sel.Obj().(*types.Func); ok {
						sig, _ := fn.Type().(*types.Signature)
						if sig != nil && sig.Recv() != nil {
							if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
								markIfPkgVar(x.X)
							}
						}
					}
				}
			}
			return true
		})
	}

	// Pass 3: report written vars that are not annotated.
	//f2tree:unordered diagnostics are position-sorted by the driver
	for obj, d := range vars {
		if !written[obj] {
			continue
		}
		pass.ReportSuppressible(d.file, d.ident.Pos(), VerbSharedState,
			"package-level variable %s is written after initialization and would race under a parallel-replica runner; move it onto the owning engine/instance or annotate //f2tree:sharedstate <reason>",
			d.ident.Name)
	}
	return nil
}

// Analyzers returns every analyzer — determinism and contract/lifecycle —
// in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{EpochCheck, HandleCheck, HotPathAlloc, LockCheck, MapIter, PoolCheck, SimClock}
}
