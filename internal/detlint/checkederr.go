package detlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CheckedErr flags silently discarded results of the repository's own
// fault-aware entry points: a call whose error (StepChecked, snapshot
// Save/Load, RepairNow, …) or lost-packet count (Engine.RouteFault and
// friends name that result "lost") is dropped — either by calling
// in statement position or by assigning the result to the blank
// identifier. A lost packet or failed step that nobody observes turns a
// detectable degradation into silent data corruption, so the discard
// must be deliberate and annotated. Standard-library callees are not
// checked; the invariant is about this module's own error contracts.
var CheckedErr = &Analyzer{
	Name: "checkederr",
	Doc:  "module-internal error and lost-count results must not be silently discarded",
	Run:  runCheckedErr,
}

func runCheckedErr(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, res := moduleCallee(p, call)
				if fn == nil {
					return true
				}
				for i := 0; i < res.Len(); i++ {
					if why := watchedResult(res.At(i)); why != "" {
						p.Reportf(call.Pos(), "%s of %s discarded; assign and check it", why, fn.Name())
					}
				}
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, res := moduleCallee(p, call)
				if fn == nil || len(st.Lhs) != res.Len() {
					return true
				}
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name != "_" {
						continue
					}
					if why := watchedResult(res.At(i)); why != "" {
						p.Reportf(id.Pos(), "%s of %s assigned to _; capture and check it", why, fn.Name())
					}
				}
			}
			return true
		})
	}
}

// moduleCallee resolves call's static callee when it is a function or
// method of the analyzed module, returning it with its result tuple.
func moduleCallee(p *Pass, call *ast.CallExpr) (*types.Func, *types.Tuple) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, nil
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, nil
	}
	path := fn.Pkg().Path()
	if path != p.Module && !strings.HasPrefix(path, p.Module+"/") {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil, nil
	}
	return fn, sig.Results()
}

// watchedResult classifies one result variable: an error, or an
// explicitly named lost-item count. Empty string means unwatched.
func watchedResult(v *types.Var) string {
	if named, ok := v.Type().(*types.Named); ok &&
		named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return "error result"
	}
	if v.Name() == "lost" {
		return "lost-count result"
	}
	return ""
}
