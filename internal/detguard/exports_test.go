package detguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// export names one exported function or package-level variable (recv empty)
// or method.
type export struct{ pkg, recv, name string }

func (e export) String() string {
	s := strings.TrimPrefix(e.pkg, "ncache/internal/") + "."
	if e.recv != "" {
		s += e.recv + "."
	}
	return s + e.name
}

// exportOf names the function or method a *types.Func is, by the named type
// that declares it — a promoted method is its embedded type's.
func exportOf(fn *types.Func) export {
	e := export{name: fn.Name()}
	if fn.Pkg() != nil {
		e.pkg = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			e.recv = n.Obj().Name()
		}
	}
	return e
}

// recvName returns the receiver type's name of a method declaration.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // a generic receiver, FreeList[T]
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isStringer reports a `String() string` or `Error() string` method: fmt and
// the error interface call those without naming them.
func isStringer(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || (fd.Name.Name != "String" && fd.Name.Name != "Error") {
		return false
	}
	ft := fd.Type
	if len(ft.Params.List) != 0 || ft.Results == nil || len(ft.Results.List) != 1 {
		return false
	}
	id, ok := ft.Results.List[0].Type.(*ast.Ident)
	return ok && id.Name == "string"
}

// isInterfaceMethod reports whether fn is declared by an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// keptUncalled lists the exported functions nothing in this module calls that
// stay anyway: exactly the function-shaped DESIGN.md §11 shims, inert since the
// sharded engine went, which benchmarks/ncmark still compiles against and no
// PR may edit. Each goes with the scaleout-par workload. The census fails on
// an entry that is gone or that this module has started to call, so the list
// cannot outlive the shims.
var keptUncalled = map[export]string{
	{"ncache/internal/passthru", "Cluster", "Close"}: "ncmark/rep.go defers it; there is nothing left to stop",
	{"ncache/internal/sim", "Engine", "RunStats"}:    "ncmark/rep.go reads Events and the epoch counters, which stay 0",
	{"ncache/internal/trace", "Tracer", "BeginOn"}:   "ncmark/driver.go begins spans with it; it is Begin",
}

// TestNoUncalledExports is the dead-export census: every exported function,
// method or package-level variable declared in non-test code under internal/
// must be referenced from some Go file of the repository — a command, an
// experiment, an example, a test, or benchmarks/ncmark (a module this one
// cannot type-check, so there a selector of the same name counts). Exempt
// are String() string and Error() string, the keptUncalled allowlist, and a
// method that satisfies an interface declared in this module — provided that
// interface method is itself called somewhere other than inside a method of
// the same name: an implementation delegating to the next one (Sharded.Probe
// → member.Probe) keeps nothing alive.
func TestNoUncalledExports(t *testing.T) {
	root, pkgs, imp := checkModule(t)

	declared := map[export]string{} // export -> declaring file
	used := map[export]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			file := imp.fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				if isFunc && declaresAPI(pkg.path, file) && fd.Name.IsExported() && !isStringer(fd) {
					declared[export{pkg.path, recvName(fd), fd.Name.Name}] = file
				}
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR && declaresAPI(pkg.path, file) {
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.IsExported() {
								declared[export{pkg: pkg.path, name: id.Name}] = file
							}
						}
					}
				}
				// Every function and package-level variable this declaration
				// references, except an interface method referenced from a
				// method of the same name.
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					switch obj := pkg.info.Uses[id].(type) {
					case *types.Func:
						if isFunc && fd.Recv != nil && fd.Name.Name == obj.Name() && isInterfaceMethod(obj) {
							return true
						}
						used[exportOf(obj)] = true
					case *types.Var:
						if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
							used[export{pkg: obj.Pkg().Path(), name: obj.Name()}] = true
						}
					}
					return true
				})
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no exported function or variable under internal/: the census checked nothing")
	}

	// Methods reached through an interface: for every named type and every
	// interface declared in non-test code of this module, the methods the
	// type satisfies the interface with — where the interface method is
	// called. unreached names, per method, the interface methods it satisfies
	// that nothing calls.
	var ifaces, named []*types.Named
	unreached := map[export][]string{}
	for path := range imp.dirs { // det: commutative (set inserts below)
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := n.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, n)
				}
			} else if n.NumMethods() > 0 {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, in := range ifaces {
			iface := in.Underlying().(*types.Interface)
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if obj == nil {
					continue
				}
				if impl := exportOf(obj.(*types.Func)); used[exportOf(m)] {
					used[impl] = true
				} else {
					unreached[impl] = append(unreached[impl], export{in.Obj().Pkg().Path(), in.Obj().Name(), m.Name()}.String())
				}
			}
		}
	}

	ncmark := map[string]bool{}
	for _, f := range ncmarkFiles(t, root, true) {
		ast.Inspect(f, func(n ast.Node) bool {
			if se, ok := n.(*ast.SelectorExpr); ok {
				ncmark[se.Sel.Name] = true
			}
			return true
		})
	}

	var uncalled []string
	for e, file := range declared { // det: sorted below
		if _, kept := keptUncalled[e]; kept || used[e] || ncmark[e.name] {
			continue
		}
		rel, _ := filepath.Rel(root, file)
		line := fmt.Sprintf("%s (%s)", e, rel)
		if via := unreached[e]; len(via) > 0 {
			sort.Strings(via)
			line += " — satisfies " + strings.Join(via, ", ") + ", which only its own implementations call"
		}
		uncalled = append(uncalled, line)
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("exported functions and variables nothing references — no command, experiment, example, "+
			"benchmark or test. ROADMAP aim 3: \"the same results from the simplest design and "+
			"the least code … One way to do each thing.\" Delete each, or add the test that "+
			"needs it:\n  %s", strings.Join(uncalled, "\n  "))
	}
	for e := range keptUncalled { // det: unordered (diagnostics)
		if _, ok := declared[e]; !ok || used[e] {
			t.Errorf("keptUncalled lists %s, which is gone or is called from this module: drop the entry", e)
		}
	}
}
