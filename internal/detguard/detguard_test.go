package detguard

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goList runs `go list -deps -export` (plus flags) over the module, using the
// go tool itself so the guards see exactly what the build sees. It returns
// the module root, the directory of every package of this module and the
// export data of the full dependency graph, both keyed by import path. The
// recompiled test variants `-test` adds ("p [p.test]", "p.test") are skipped:
// with that flag the listing only gains the packages tests alone import.
func goList(t *testing.T, flags ...string) (root string, dirs, exports map[string]string) {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	root = filepath.Dir(strings.TrimSpace(string(out)))

	args := append([]string{"list", "-deps", "-export"}, flags...)
	cmd := exec.Command("go", append(args, "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Export}}", "./...")...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err = cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	dirs = map[string]string{}
	exports = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			continue
		}
		path, dir, export := parts[0], parts[1], parts[2]
		if strings.Contains(path, " ") || strings.HasSuffix(path, ".test") {
			continue
		}
		if export != "" {
			exports[path] = export
		}
		if path == "ncache" || strings.HasPrefix(path, "ncache/") {
			dirs[path] = dir
		}
	}
	return root, dirs, exports
}

// listPackages resolves the directory of every package under internal/ and
// cmd/ and the export data of the full dependency graph.
func listPackages(t *testing.T) (pkgDirs map[string]string, exports map[string]string) {
	t.Helper()
	_, pkgDirs, exports = goList(t)
	for path := range pkgDirs { // det: commutative (filter)
		if !strings.HasPrefix(path, "ncache/internal/") && !strings.HasPrefix(path, "ncache/cmd/") {
			delete(pkgDirs, path)
		}
	}
	if len(pkgDirs) == 0 {
		t.Fatal("go list resolved no ncache/internal or ncache/cmd packages")
	}
	return pkgDirs, exports
}

// exportImporter imports packages from the export data goList resolved.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// moduleImporter resolves this module's packages by type-checking their
// non-test source, once each, and everything else from export data: every
// package then sees the same objects for the module's types, which is what
// lets an interface declared in one package be tested against a type declared
// in another.
type moduleImporter struct {
	t    *testing.T
	fset *token.FileSet
	dirs map[string]string
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	dir, ours := m.dirs[path]
	if !ours {
		return m.std.Import(path)
	}
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	conf := types.Config{Importer: m, FakeImportC: true}
	pkg, err := conf.Check(path, m.fset, sourceFiles(m.t, m.fset, dir), nil)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// checkedPkg is one type-checked package clause: a package with its
// in-package tests, or its external test package.
type checkedPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// checkModule type-checks every package of the module with its tests — the
// commands, the examples and the packages only tests import included — and
// returns the module root, the checked package clauses in import-path order,
// and the importer, which holds the file set and whose Import answers any
// module package without its tests.
func checkModule(t *testing.T) (root string, pkgs []checkedPkg, imp *moduleImporter) {
	t.Helper()
	root, dirs, exports := goList(t, "-test")
	fset := token.NewFileSet()
	imp = &moduleImporter{t: t, fset: fset, dirs: dirs, std: exportImporter(fset, exports), pkgs: map[string]*types.Package{}}

	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p) // det: sorted
	}
	sort.Strings(paths)
	for _, path := range paths {
		entries, err := os.ReadDir(dirs[path])
		if err != nil {
			t.Fatalf("%s: %v", dirs[path], err)
		}
		// One package per package clause: the package with its in-package
		// tests, and its external test package if it has one.
		groups := map[string][]*ast.File{}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			full := filepath.Join(dirs[path], e.Name())
			f, err := parser.ParseFile(fset, full, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", full, err)
			}
			groups[f.Name.Name] = append(groups[f.Name.Name], f)
		}
		names := make([]string, 0, len(groups))
		for name := range groups {
			names = append(names, name) // det: sorted
		}
		sort.Strings(names)
		for _, name := range names {
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			checkPath := path
			if strings.HasSuffix(name, "_test") {
				checkPath += "_test"
			}
			conf := types.Config{Importer: imp, FakeImportC: true}
			if _, err := conf.Check(checkPath, fset, groups[name], info); err != nil {
				t.Fatalf("typecheck %s: %v", checkPath, err)
			}
			pkgs = append(pkgs, checkedPkg{path: path, files: groups[name], info: info})
		}
	}
	return root, pkgs, imp
}

// declaresAPI reports whether a file of the package at path is non-test code
// under internal/ — where the censuses look for declarations.
func declaresAPI(path, file string) bool {
	return strings.HasPrefix(path, "ncache/internal/") && !strings.HasSuffix(file, "_test.go")
}

// ncmarkFiles parses benchmarks/ncmark, a module of its own that this one
// cannot type-check: the censuses match what it uses by name. tests keeps
// its _test.go files.
func ncmarkFiles(t *testing.T, root string, tests bool) []*ast.File {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(root, "benchmarks", "ncmark", "*.go"))
	fset := token.NewFileSet()
	var files []*ast.File
	for _, full := range names {
		if !tests && strings.HasSuffix(full, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, full, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", full, err)
		}
		files = append(files, f)
	}
	return files
}

// sourceFiles parses the non-test Go files of one package directory.
func sourceFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", full, err)
		}
		files = append(files, f)
	}
	return files
}

// relPos renders a position relative to the module root.
func relPos(pos token.Position) string {
	rel := pos.Filename
	for _, top := range []string{"internal", "cmd", "examples"} {
		if i := strings.Index(rel, top+string(filepath.Separator)); i >= 0 {
			rel = rel[i:]
			break
		}
	}
	return fmt.Sprintf("%s:%d", rel, pos.Line)
}

// TestNoGoroutines is the single-goroutine guard: no non-test file under
// internal/ or cmd/ may contain a go statement. Pools, refcounts and
// every counter of a cluster are plain fields because nothing but the
// caller's goroutine ever touches a cluster (DESIGN.md §11); a goroutine
// inside the simulator would make each of them a data race.
func TestNoGoroutines(t *testing.T) {
	pkgDirs, _ := listPackages(t)
	fset := token.NewFileSet()
	var violations []string
	for _, dir := range pkgDirs { // det: sorted below
		for _, f := range sourceFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					violations = append(violations, relPos(fset.Position(g.Pos())))
				}
				return true
			})
		}
	}
	sort.Strings(violations)
	if len(violations) > 0 {
		t.Errorf("go statements in simulator code (a cluster is single-goroutine by "+
			"design and its state is unsynchronised — see DESIGN.md §11, \"One engine, "+
			"and why\"; run clusters concurrently from tests instead):\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// TestNoUnannotatedMapRanges is the determinism guard: every `for ... range`
// over a map in every internal/ and cmd/ package must carry a `// det:`
// annotation on its own or the preceding line, stating why the unordered
// iteration cannot perturb the replayed schedule (see the package comment for
// the vocabulary). The check is type-based — renaming a variable or aliasing a
// map type does not evade it.
func TestNoUnannotatedMapRanges(t *testing.T) {
	pkgDirs, exports := listPackages(t)

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)

	paths := make([]string, 0, len(pkgDirs))
	for p := range pkgDirs {
		paths = append(paths, p) // det: sorted
	}
	sort.Strings(paths)

	var violations []string
	for _, path := range paths {
		files := sourceFiles(t, fset, pkgDirs[path])
		if len(files) == 0 {
			continue
		}
		// detLines[filename] holds the lines carrying a det: annotation.
		detLines := map[string]map[int]bool{}
		for _, f := range files {
			lines := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, "det:") {
						lines[fset.Position(c.Pos()).Line] = true
					}
				}
			}
			detLines[fset.Position(f.Pos()).Filename] = lines
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp, FakeImportC: true}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pos := fset.Position(rs.Pos())
				annotated := detLines[pos.Filename][pos.Line] || detLines[pos.Filename][pos.Line-1]
				if !annotated {
					violations = append(violations, relPos(pos))
				}
				return true
			})
		}
	}
	if len(violations) > 0 {
		t.Errorf("map iterations without a `// det:` determinism annotation "+
			"(unordered map ranges on the event path break bit-for-bit replay; "+
			"annotate why this one is safe — see internal/detguard/doc.go):\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// TestNoSynchronisation is the other half of the single-goroutine rule: no
// non-test file under internal/ or cmd/ may import sync or sync/atomic.
// Whatever a cluster holds — pools, chain lists, counters — belongs to the
// one goroutine that runs it, so a lock there is either dead weight or a
// sign that state leaked between clusters (DESIGN.md §11).
func TestNoSynchronisation(t *testing.T) {
	pkgDirs, _ := listPackages(t)
	fset := token.NewFileSet()
	var violations []string
	for _, dir := range pkgDirs { // det: sorted below
		for _, f := range sourceFiles(t, fset, dir) {
			for _, imp := range f.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); p == "sync" || p == "sync/atomic" {
					violations = append(violations, relPos(fset.Position(imp.Pos()))+" imports "+p)
				}
			}
		}
	}
	sort.Strings(violations)
	if len(violations) > 0 {
		t.Errorf("synchronisation in simulator code (a cluster's state belongs to one "+
			"goroutine — see DESIGN.md §11):\n  %s", strings.Join(violations, "\n  "))
	}
}

// TestTimersGoThroughTheNode guards the one place a killed server's work is
// dropped: every timer and completion the software on a node posts belongs
// to the node's incarnation (simnet.Node.Schedule, PostAt and Charge), and
// Node.Kill ends it. An engine post made anywhere else would outlive a kill
// and run into the dead process, so only the engine itself (sim), the
// hardware and fabric (simnet), the fault injector (fault), the workload
// generators of client hosts, which are never killed (workload), and the
// experiment harness (bench) may post on the engine. A sim.Resource's Use
// posts its done callback on the engine too, so it may pass one only there
// and in blockdev: a disk is hardware of a storage node, which no kill
// reaches, and an I/O a dead server started still lands on the platter.
func TestTimersGoThroughTheNode(t *testing.T) {
	posts := map[string]bool{"Schedule": true, "At": true, "Post": true, "PostAt": true,
		"PostKeyed": true}
	allowed := map[string]bool{"sim": true, "simnet": true, "fault": true, "workload": true, "bench": true}
	usesDone := map[string]bool{"sim": true, "simnet": true, "blockdev": true}
	var violations []string
	funcUses(t, func(path, at, _ string, fn *types.Func, call *ast.CallExpr) {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return
		}
		pkg, _ := strings.CutPrefix(path, "ncache/internal/")
		switch types.TypeString(recv.Type(), nil) {
		case "*ncache/internal/sim.Engine":
			if posts[fn.Name()] && !allowed[pkg] {
				violations = append(violations, at+" calls Engine."+fn.Name())
			}
		case "*ncache/internal/sim.Resource":
			if fn.Name() == "Use" && !usesDone[pkg] && (call == nil || !isNil(call.Args[1])) {
				violations = append(violations, at+" calls Resource.Use with a done callback")
			}
		}
	})
	sort.Strings(violations)
	if len(violations) > 0 {
		t.Errorf("engine posts that a node kill does not drop (post through the node: "+
			"simnet.Node.Schedule, PostAt or Charge):\n  %s", strings.Join(violations, "\n  "))
	}
}

// TestOneLoopRunsTheEngine holds the experiment harness to one measurement
// loop and one way to wait: in the non-test files of internal/bench only
// harness.measure, which runs every load, and await, which drives setup calls
// to completion, may run the engine (Engine.Run, RunFor or RunUntil). A
// second loop would warm up, reset and sample a window its own way, and a
// hand-rolled drain would check its calls' answers its own way.
func TestOneLoopRunsTheEngine(t *testing.T) {
	runs := map[string]bool{"Run": true, "RunFor": true, "RunUntil": true}
	allowed := map[string]bool{"measure": true, "await": true}
	var violations []string
	funcUses(t, func(path, at, encl string, fn *types.Func, _ *ast.CallExpr) {
		recv := fn.Type().(*types.Signature).Recv()
		if path == "ncache/internal/bench" && runs[fn.Name()] && !allowed[encl] && recv != nil &&
			types.TypeString(recv.Type(), nil) == "*ncache/internal/sim.Engine" {
			violations = append(violations, at+" ("+encl+") runs Engine."+fn.Name())
		}
	})
	sort.Strings(violations)
	if len(violations) > 0 {
		t.Errorf("internal/bench runs the engine outside harness.measure and await "+
			"(run a load through measure, drive setup calls with await):\n  %s", strings.Join(violations, "\n  "))
	}
}

// TestEngineRunsAreStatements keeps the engine's run error unread: Run,
// RunFor and RunUntil always return nil (the error is a shim only
// benchmarks/ncmark reads, DESIGN.md §11), so everywhere in the module, tests,
// commands and examples included, each use of them must be the call of a bare
// expression statement. Only the engine's own files are exempt (RunFor
// returns RunUntil's result). A branch on the error, a returned or assigned
// result and a method value each fail it.
func TestEngineRunsAreStatements(t *testing.T) {
	runs := map[string]bool{"Run": true, "RunFor": true, "RunUntil": true}
	_, pkgs, imp := checkModule(t)
	var violations []string
	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			pos := imp.fset.Position(f.Pos())
			if pkg.path == "ncache/internal/sim" && !strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			bare := map[ast.Expr]bool{} // callees of expression statements
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						bare[call.Fun] = true
					}
				case *ast.SelectorExpr:
					fn, ok := pkg.info.Uses[n.Sel].(*types.Func)
					if !ok || !runs[fn.Name()] || bare[n] {
						return true
					}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil &&
						types.TypeString(recv.Type(), nil) == "*ncache/internal/sim.Engine" {
						violations = append(violations, relPos(imp.fset.Position(n.Pos()))+" reads Engine."+fn.Name())
					}
				}
				return true
			})
		}
	}
	sort.Strings(violations)
	if len(violations) > 0 {
		t.Errorf("engine runs that are not bare call statements (their error is always nil; "+
			"call eng.Run(), RunFor or RunUntil as a statement):\n  %s", strings.Join(violations, "\n  "))
	}
}

// isNil reports whether e is the identifier nil.
func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// funcUses type-checks the non-test files of every package under internal/
// and cmd/ and calls visit for each use of a function or method declared in
// a package, with the using package's path, the use's position, the name of
// the top-level function or method it sits in ("" outside one) and, when
// the use is the callee of a call (f(…) or x.f(…)), that call.
func funcUses(t *testing.T, visit func(path, at, encl string, fn *types.Func, call *ast.CallExpr)) {
	t.Helper()
	pkgDirs, exports := listPackages(t)
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	for path, dir := range pkgDirs { // det: sorted (callers sort what they collect)
		files := sourceFiles(t, fset, dir)
		if len(files) == 0 {
			continue
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, FakeImportC: true}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				encl := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					encl = fd.Name.Name
				}
				callee := map[*ast.Ident]*ast.CallExpr{}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						switch fun := n.Fun.(type) {
						case *ast.Ident:
							callee[fun] = n
						case *ast.SelectorExpr:
							callee[fun.Sel] = n
						}
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok && fn.Pkg() != nil {
							visit(path, relPos(fset.Position(n.Pos())), encl, fn, callee[n])
						}
					}
					return true
				})
			}
		}
	}
}
