package detguard

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCensusNamesLiveFuncs: every "path Func" line of the coverage census in
// results/ (unreached.txt and partial.txt, written by scripts/results-gate.sh)
// names a function or method declared in that file today. Tier-1 runs no
// results gate, so without this a deleted or renamed function would leave a
// stale census line that only the gate notices.
func TestCensusNamesLiveFuncs(t *testing.T) {
	root := filepath.Join("..", "..")
	decls := map[string]map[string]bool{}
	for _, census := range []string{"unreached.txt", "partial.txt"} {
		data, err := os.ReadFile(filepath.Join(root, "results", census))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			f := strings.Fields(line)
			if len(f) < 2 {
				t.Errorf("results/%s:%d: %q is not a \"path Func\" line", census, i+1, line)
				continue
			}
			names, ok := decls[f[0]]
			if !ok {
				names = declaredFuncs(t, filepath.Join(root, f[0]))
				decls[f[0]] = names
			}
			if !names[f[1]] {
				t.Errorf("results/%s:%d: %s declares no %s; rerun scripts/results-gate.sh", census, i+1, f[0], f[1])
			}
		}
	}
}

// declaredFuncs returns the functions and methods file declares, named as
// `go tool covdata func` names them: "Func", "Recv.Method" with no receiver
// star, and a bare "Method" on a generic type. A file that no longer exists
// declares nothing.
func declaredFuncs(t *testing.T, file string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if errors.Is(err, fs.ErrNotExist) {
		return names
	}
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil {
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		names[name] = true
	}
	return names
}
