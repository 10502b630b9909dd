package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// optionStructs are the config structs held to the rule "a field stays only
// while some caller sets it": directory under the repository root, type name,
// and whether only production callers count — setters in _test.go files do
// not. blocks.Config is the one struct whose setters in tests still count
// (ROADMAP item 16 says why).
var optionStructs = []struct {
	dir, name string
	prodOnly  bool
}{
	{"internal/chaos", "Config", true},
	{"internal/namenode", "Config", true},
	{"internal/ndb", "Config", true},
	{"internal/blocks", "Config", false},
	{"internal/cephfs", "Config", true},
	{"internal/autoscale", "Config", true},
	{"internal/bench", "ElasticOptions", true},
	{"internal/slo", "Spec", true},
	{"internal/slo", "ExemplarConfig", true},
	{"internal/core", "Options", true},
}

// fieldSet is one place the source assigns something called name: a keyed
// composite-literal element (lit is the literal's type as written, "" when
// elided) or a selector on the left of an assignment.
type fieldSet struct {
	name, lit string
	keyed     bool
	file, fn  string
}

// TestEveryOptionIsSetSomewhere parses every Go file in the repository
// (tests, cmd/ and benchmark/ included) and requires, for each
// exported field of optionStructs, a keyed-literal or selector assignment
// outside the Default*/withDefaults functions of the file that declares the
// struct, and for a prodOnly struct outside tests. A field
// that fails is an option with one value in use: make it a constant beside
// the code that reads it. Matching is by name, so a name
// several structs share (Window, Seed) is satisfied by any of them; a keyed
// literal whose type is written out only counts for that type.
func TestEveryOptionIsSetSomewhere(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := map[string]*ast.File{} // slash path relative to root
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); file != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, file)
		files[filepath.ToSlash(rel)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var sets []fieldSet
	for rel, f := range files {
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					lit := typeString(n.Type)
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								sets = append(sets, fieldSet{id.Name, lit, true, rel, fn})
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						// x.A.B = v sets B, and through it A.
						for sel, ok := lhs.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
							sets = append(sets, fieldSet{sel.Sel.Name, "", false, rel, fn})
						}
					}
				}
				return true
			})
		}
	}

	for _, s := range optionStructs {
		declFile, fields := findStruct(files, s.dir, s.name)
		if declFile == "" {
			t.Errorf("%s.%s: struct not found; update optionStructs", s.dir, s.name)
			continue
		}
		pkg := path.Base(s.dir)
		for _, field := range fields {
			found := false
			for _, a := range sets {
				if a.name != field {
					continue
				}
				if a.file == declFile && (strings.HasPrefix(a.fn, "Default") || a.fn == "withDefaults") {
					continue
				}
				if s.prodOnly && strings.HasSuffix(a.file, "_test.go") {
					continue
				}
				if a.keyed && a.lit != "" && a.lit != pkg+"."+s.name && !(a.lit == s.name && path.Dir(a.file) == s.dir) {
					continue
				}
				found = true
				break
			}
			if !found {
				t.Errorf("%s.%s.%s is set by no caller: make it a constant", pkg, s.name, field)
			}
		}
	}
}

// typeString renders a composite literal's type as written: "Config",
// "chaos.Config", with a leading & or * dropped; "" for anything else.
func typeString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
	case *ast.StarExpr:
		return typeString(e.X)
	}
	return ""
}

// findStruct returns the non-test file under dir that declares the struct
// and its exported field names.
func findStruct(files map[string]*ast.File, dir, name string) (string, []string) {
	for rel, f := range files {
		if path.Dir(rel) != dir || strings.HasSuffix(rel, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var fields []string
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, id.Name)
						}
					}
				}
				return rel, fields
			}
		}
	}
	return "", nil
}
