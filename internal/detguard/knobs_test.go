package detguard

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knob names one independently settable value: an exported field of a
// configuration struct.
type knob struct{ pkg, typ, field string }

func (k knob) String() string {
	return strings.TrimPrefix(k.pkg, "ncache/internal/") + "." + k.typ + "." + k.field
}

// isKnobStruct reports whether a struct of this name holds knobs.
func isKnobStruct(name string) bool {
	return strings.HasSuffix(name, "Config") || name == "Options"
}

// structOf returns the named struct type behind t (through one pointer), or
// nil.
func structOf(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n
}

// fieldOwner returns the named struct that declares the field a selection
// resolves to, following the embedding path of a promoted field.
func fieldOwner(sel *types.Selection) *types.Named {
	owner := structOf(sel.Recv())
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		if owner == nil {
			return nil
		}
		owner = structOf(owner.Underlying().(*types.Struct).Field(i).Type())
	}
	return owner
}

// TestEveryKnobIsTurned is the option census: for every exported field of a
// struct declared in non-test code under internal/ whose name ends in Config
// or is Options, some non-test Go file other than the declaring one — a
// command, an experiment, an example or the benchmark — must set it, as a
// keyed composite-literal element or as the target of an assignment. A field
// that only its own file's defaults and tests ever write has one value in
// use and should be the constant it is; a test then pins that constant.
//
// Fields are resolved through the type checker, so a field does not vouch
// for a same-named field of another struct. benchmarks/ncmark is a module of
// its own that this one cannot type-check; there a keyed literal of a type
// with the same name counts.
func TestEveryKnobIsTurned(t *testing.T) {
	root, pkgs, imp := checkModule(t)

	declared := map[knob]string{}          // knob -> declaring file
	turnedIn := map[knob]map[string]bool{} // knob -> files that set it
	turn := func(n *types.Named, field, file string) {
		if n == nil || !isKnobStruct(n.Obj().Name()) || strings.HasSuffix(file, "_test.go") {
			return
		}
		k := knob{n.Obj().Pkg().Path(), n.Obj().Name(), field}
		if turnedIn[k] == nil {
			turnedIn[k] = map[string]bool{}
		}
		turnedIn[k][file] = true
	}

	for _, pkg := range pkgs {
		path, info := pkg.path, pkg.info
		for _, f := range pkg.files {
			file := imp.fset.Position(f.Pos()).Filename
			declares := declaresAPI(path, file)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !declares || !isKnobStruct(n.Name.Name) {
						return true
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() {
								declared[knob{path, n.Name.Name, id.Name}] = file
							}
						}
					}
				case *ast.CompositeLit:
					owner := structOf(info.Types[n].Type)
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								turn(owner, id.Name, file)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if se, ok := lhs.(*ast.SelectorExpr); ok {
							if sel := info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
								turn(fieldOwner(sel), se.Sel.Name, file)
							}
						}
					}
				}
				return true
			})
		}
	}

	// benchmarks/ncmark: keyed literals of pkg.Type, by type and field name.
	ncmark := map[[2]string]bool{}
	for _, f := range ncmarkFiles(t, root, false) {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			se, ok := lit.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						ncmark[[2]string{se.Sel.Name, id.Name}] = true
					}
				}
			}
			return true
		})
	}

	if len(declared) == 0 {
		t.Fatal("found no configuration struct under internal/: the census checked nothing")
	}
	var unturned []string
	for k, file := range declared { // det: sorted below
		turned := ncmark[[2]string{k.typ, k.field}]
		for setter := range turnedIn[k] { // det: commutative (any)
			turned = turned || setter != file
		}
		if !turned {
			rel, _ := filepath.Rel(root, file)
			unturned = append(unturned, fmt.Sprintf("%s (%s)", k, rel))
		}
	}
	sort.Strings(unturned)
	if len(unturned) > 0 {
		t.Errorf("configuration fields that no non-test file besides their declaring one sets: "+
			"a knob survives only if a command, experiment, example or the benchmark turns it "+
			"(ROADMAP aim 3: one way to do each thing), and a test turning it does not count. "+
			"Make each a constant in the package that owns the mechanism, and point its tests "+
			"at the constant:\n  %s",
			strings.Join(unturned, "\n  "))
	}
}
