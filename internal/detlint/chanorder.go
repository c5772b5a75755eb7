package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanOrder flags channel constructs in deterministic packages whose
// observable effect depends on arrival (completion) order rather than
// program order:
//
//   - a select with two or more communication cases commits whichever
//     operation is ready first — scheduler order, not program order;
//     a single case plus default (a non-blocking poll) is
//     deterministic and allowed;
//   - ranging over a channel consumes values in completion order;
//   - merging worker results in completion order inside a loop — an
//     append whose element is received from a channel, directly or via
//     a receive-bound local — bakes arrival order into a slice. The
//     sanctioned merge receives into an indexed slot (`out[r.shard] =
//     r.v`) or drains per-shard buffers in shard-index order.
//
// Suppress deliberate service-level waits (a transport timeout racing
// a result that is itself deterministic) with //detlint:ignore
// chanorder <reason>.
var ChanOrder = &Analyzer{
	Name:     "chanorder",
	Doc:      "no multi-case selects, channel ranges, or completion-order result merges in deterministic packages",
	Packages: DetPackages,
	Run:      runChanOrder,
}

func runChanOrder(p *Pass) {
	// nested loops revisit inner appends; report each site once
	seen := map[token.Pos]bool{}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.SelectStmt:
				comm := 0
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					p.Reportf(st.Pos(),
						"select with %d communication cases commits in arrival order; wait on one channel at a time, or annotate why every interleaving yields identical observable state", comm)
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(st.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						p.Reportf(st.Pos(),
							"range over channel %s consumes results in completion order; receive into per-shard slots and merge by shard index, or annotate why order is immaterial", types.ExprString(st.X))
					}
				}
				checkCompletionMerge(p, st.Body, st.Body.Pos(), seen)
			case *ast.ForStmt:
				checkCompletionMerge(p, st.Body, st.Body.Pos(), seen)
			}
			return true
		})
	}
}

// checkCompletionMerge flags appends inside a loop body whose appended
// element is a channel receive — directly (`x = append(x, <-ch)`) or
// through a local bound from one (`v := <-ch; …; x = append(x, v.f)`)
// — when the destination slice outlives the loop. Receives inside
// select clauses are excluded: the select rule owns those, and the
// sanctioned single-case+default poll must stay clean.
func checkCompletionMerge(p *Pass, body *ast.BlockStmt, bodyPos token.Pos, seen map[token.Pos]bool) {
	recvLocals := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.SelectStmt); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// v := <-ch binds a completion-ordered value to a local
		if len(as.Lhs) >= 1 && len(as.Rhs) == 1 && isRecvExpr(as.Rhs[0]) {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := p.Info.Defs[id]; obj != nil {
						recvLocals[obj] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.SelectStmt); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return true
		}
		if _, isBuiltin := p.Info.Uses[fn].(*types.Builtin); !isBuiltin {
			return true
		}
		dst, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		dstObj := p.Info.Uses[dst]
		if dstObj == nil {
			dstObj = p.Info.Defs[dst]
		}
		if dstObj == nil || dstObj.Pos() >= bodyPos {
			return true // loop-local scratch, dies with the iteration
		}
		for _, arg := range call.Args[1:] {
			fromRecv := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if isRecvExpr(m) {
					fromRecv = true
				}
				if id, ok := m.(*ast.Ident); ok && recvLocals[p.Info.Uses[id]] {
					fromRecv = true
				}
				return true
			})
			if fromRecv {
				if seen[as.Pos()] {
					return true
				}
				seen[as.Pos()] = true
				p.Reportf(as.Pos(),
					"%s merges worker results in channel completion order; receive into a per-shard slot and merge by shard index instead, or annotate why arrival order is immaterial",
					dst.Name)
				return true
			}
		}
		return true
	})
}

func isRecvExpr(n ast.Node) bool {
	ue, ok := n.(*ast.UnaryExpr)
	return ok && ue.Op == token.ARROW
}
