package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadCode is the whole-program check (DESIGN.md §14.5): every function
// and method must be reachable from a root through non-test code. Every
// package of this module sits under internal/, so code no main reaches
// has no caller at all; a function only tests call belongs in a
// _test.go file.
//
// Roots are the main and init functions and the package-level
// initializers of main packages; a package-level variable elsewhere
// passes on its initializer's references once live code names it. Any
// reference counts as an edge, called or not. A method is also live
// when its type implements an interface the program names, or one the
// standard library calls by reflection (reflectMethods).
//
// The check runs only when the load includes a main package, over the
// mains' import closure, and stands down when a module package of that
// closure is missing from the load. It is meant for the whole module
// (./...): a load that leaves out one of several mains may report code
// only that main reaches.
var DeadCode = &Analyzer{
	Name:    "deadcode",
	Doc:     "every function must be reachable from a main package through non-test code",
	Program: runDeadCode,
}

// reflectMethods are the methods the standard library calls through
// interfaces the program need not name: fmt, errors and the encoders.
var reflectMethods = []string{
	"Error()(string)", "Unwrap()(error)", "Unwrap()([]error)",
	"String()(string)", "GoString()(string)", "Format(fmt.State,rune)()",
	"MarshalJSON()([]byte,error)", "UnmarshalJSON([]byte)(error)",
	"MarshalText()([]byte,error)", "UnmarshalText([]byte)(error)",
	"MarshalBinary()([]byte,error)", "UnmarshalBinary([]byte)(error)",
	"GobEncode()([]byte,error)", "GobDecode([]byte)(error)",
}

func runDeadCode(passes []*Pass) []*Pass {
	covered := importClosure(passes)
	type decl struct {
		p   *Pass
		fd  *ast.FuncDecl
		key string
	}
	var decls []decl
	var roots []string
	edges := map[string][]string{}
	ifaces := map[string][]string{}
	for _, key := range reflectMethods {
		ifaces[key] = []string{key}
	}
	for _, p := range covered {
		isMain := p.Types.Name() == "main"
		for _, file := range p.Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					key := fn.FullName()
					edges[key] = append(edges[key], references(p, d)...)
					if d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main") {
						roots = append(roots, key)
					} else {
						decls = append(decls, decl{p, d, key})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && d.Tok == token.VAR {
							for _, nm := range vs.Names {
								key := p.Path + "." + nm.Name
								edges[key] = append(edges[key], references(p, vs)...)
								if isMain || nm.Name == "_" {
									roots = append(roots, key)
								}
							}
						}
					}
				}
			}
		}
		for _, tv := range p.Info.Types {
			addInterface(ifaces, tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					addInterface(ifaces, sig.Params().At(i).Type())
				}
			}
		}
	}
	for _, p := range covered {
		roots = append(roots, implementedMethods(p, ifaces)...)
	}

	live := map[string]bool{}
	for len(roots) > 0 {
		key := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !live[key] {
			live[key] = true
			roots = append(roots, edges[key]...)
		}
	}
	for _, d := range decls {
		if !live[d.key] {
			name := d.fd.Name.Name
			if d.fd.Recv != nil {
				recv, _ := derefNamed(d.p.Info.TypeOf(d.fd.Recv.List[0].Type))
				name = recv.Obj().Name() + "." + name
			}
			d.p.Reportf(d.fd.Name.Pos(), "%s is reachable from no main package; only tests or dead code use it", name)
		}
	}
	return covered
}

// importClosure returns, in load order, the loaded main packages and
// every module package they import, directly or not; nil when there is
// no main package or a package of the closure is not loaded.
func importClosure(passes []*Pass) []*Pass {
	byPath := map[string]*Pass{}
	var queue []*Pass
	for _, p := range passes {
		byPath[p.Path] = p
		if p.Types.Name() == "main" {
			queue = append(queue, p)
		}
	}
	in := map[*Pass]bool{}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if in[p] {
			continue
		}
		in[p] = true
		for _, imp := range p.Types.Imports() {
			if path := imp.Path(); path == p.Module || strings.HasPrefix(path, p.Module+"/") {
				if byPath[path] == nil {
					return nil
				}
				queue = append(queue, byPath[path])
			}
		}
	}
	var out []*Pass
	for _, p := range passes {
		if in[p] {
			out = append(out, p)
		}
	}
	return out
}

// references lists the keys of the functions, methods and package-level
// variables node names. Keys are names, not objects, because each
// package's imports come from a separate typecheck.
func references(p *Pass, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := p.Info.Uses[id].(type) {
			case *types.Func:
				out = append(out, obj.Origin().FullName())
			case *types.Var:
				if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
					out = append(out, pkg.Path()+"."+obj.Name())
				}
			}
		}
		return true
	})
	return out
}

// addInterface records the method signatures of t if it is a non-empty
// interface.
func addInterface(ifaces map[string][]string, t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	sigs := make([]string, it.NumMethods())
	for i := range sigs {
		sigs[i] = methodSig(it.Method(i))
	}
	ifaces[strings.Join(sigs, ";")] = sigs
}

// implementedMethods returns the keys of the methods by which a named
// type of p implements one of ifaces.
func implementedMethods(p *Pass, ifaces map[string][]string) []string {
	var out []string
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(tn.Type()))
		have := map[string]string{}
		for i := 0; i < mset.Len(); i++ {
			fn := mset.At(i).Obj().(*types.Func)
			have[methodSig(fn)] = fn.Origin().FullName()
		}
	next:
		for _, sigs := range ifaces {
			for _, s := range sigs {
				if have[s] == "" {
					continue next
				}
			}
			for _, s := range sigs {
				out = append(out, have[s])
			}
		}
	}
	return out
}

// methodSig renders a method's name and unnamed signature with
// package-path qualified types, so signatures from separate typechecks
// compare equal as strings.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	tuple := func(t *types.Tuple, variadic bool) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), (*types.Package).Path)
		}
		if variadic {
			parts[len(parts)-1] = "..." + parts[len(parts)-1]
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	return fn.Name() + tuple(sig.Params(), sig.Variadic()) + tuple(sig.Results(), false)
}
