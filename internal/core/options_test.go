package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// optionStructs are the config structs held to the rule "a field stays only
// while some caller sets it": import path, type name, and whether only
// production callers count — setters in _test.go files do not. blocks.Config
// is the one struct whose setters in tests still count (ROADMAP item 16 says
// why).
var optionStructs = []struct {
	pkg, name string
	prodOnly  bool
}{
	{"hopsfscl/internal/chaos", "Config", true},
	{"hopsfscl/internal/namenode", "Config", true},
	{"hopsfscl/internal/ndb", "Config", true},
	{"hopsfscl/internal/blocks", "Config", false},
	{"hopsfscl/internal/cephfs", "Config", true},
	{"hopsfscl/internal/slo", "Spec", true},
	{"hopsfscl/internal/slo", "ExemplarConfig", true},
	{"hopsfscl/internal/core", "Options", true},
}

// optionExemptions are the fields the gate lets stand without a setter it
// counts, each with its reason.
var optionExemptions = map[string]string{
	"core.Options.DisableBatchedWrites": "chaos/racing_test.go runs whole deployments on the serial write path, " +
		"the reference the batched path is checked against",
}

// fieldSet is one place the source sets a struct field: a key of a struct
// literal, or a selector on the left of an assignment (x.A.B = v sets B,
// and through it A), resolved by the type checker to the field it names.
type fieldSet struct {
	field    token.Pos // the field's declaration
	file, fn string    // slash path relative to the root; enclosing function
}

// TestEveryOptionIsSetSomewhere type-checks every Go file in the repository
// (tests, cmd/ and benchmark/ included) and requires, for each exported
// field of optionStructs, a keyed-literal or selector assignment of that
// very field outside the Default*/withDefaults functions of the file that
// declares the struct, and for a prodOnly struct outside tests. A field that
// fails is an option with one value in use: make it a constant beside the
// code that reads it. Matching is by the field the type checker resolves,
// so a same-named field of another struct satisfies nothing.
func TestEveryOptionIsSetSomewhere(t *testing.T) {
	root := filepath.Join("..", "..")
	l := loadRepo(t, root)
	exempted := map[string]bool{}
	for _, s := range optionStructs {
		pkg := l.pkgs[s.pkg]
		if pkg == nil {
			t.Errorf("%s: package not found; update optionStructs", s.pkg)
			continue
		}
		named, ok := lookupStruct(pkg, s.name)
		if !ok {
			t.Errorf("%s.%s: struct not found; update optionStructs", s.pkg, s.name)
			continue
		}
		for _, field := range unsetFields(l.fset, root, l.sets, named, s.prodOnly) {
			name := pkg.Name() + "." + s.name + "." + field
			if _, ok := optionExemptions[name]; ok {
				exempted[name] = true
			} else {
				t.Errorf("%s is set by no caller: make it a constant", name)
			}
		}
	}
	for name := range optionExemptions {
		if !exempted[name] {
			t.Errorf("%s is exempt, but the gate would pass it: drop the exemption", name)
		}
	}
}

// TestOptionGateResolvesTypes: a field set only through a same-named field
// of another struct is reported, where matching by name would accept it.
func TestOptionGateResolvesTypes(t *testing.T) {
	const src = `package p

type Config struct{ Window, Seed int }
type Other struct{ Window int }

func use() {
	var o Other
	o.Window = 1
	_ = Other{Window: 2}
	_ = []Config{{Seed: 1}}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	named, _ := lookupStruct(pkg, "Config")
	sets := setsIn(f, "p.go", info)
	if got := unsetFields(fset, ".", sets, named, true); !slices.Equal(got, []string{"Window"}) {
		t.Errorf("unset fields of Config = %v, want [Window]", got)
	}
}

// repo is the type-checked repository: every package by import path, and
// every field set in any of its files.
type repo struct {
	fset *token.FileSet
	pkgs map[string]*types.Package
	sets []fieldSet
}

// dirFiles are one directory's parsed files: the package, its in-package
// tests, and its external test package.
type dirFiles struct {
	prod, tests, xtest []*ast.File
}

// loadRepo parses every Go file under root, skipping dot directories and
// testdata, and type-checks each directory's package (its import path is
// "hopsfscl/" plus the directory; benchmark/'s module path agrees), then
// the package with its in-package tests, then its external test package.
// Repository imports resolve to the production packages, so an external
// test package that reads its package's export_test.go would not check;
// none does. The standard library comes from importer.Default().
func loadRepo(t *testing.T, root string) *repo {
	t.Helper()
	l := &repo{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}}
	dirs := map[string]*dirFiles{} // by import path
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
		f, err := parser.ParseFile(l.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(file))
		imp := path.Join("hopsfscl", filepath.ToSlash(rel))
		df := dirs[imp]
		if df == nil {
			df = &dirFiles{}
			dirs[imp] = df
		}
		switch {
		case !strings.HasSuffix(file, "_test.go"):
			df.prod = append(df.prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			df.xtest = append(df.xtest, f)
		default:
			df.tests = append(df.tests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	collect := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			rel, _ := filepath.Rel(root, l.fset.Position(f.Package).Filename)
			l.sets = append(l.sets, setsIn(f, filepath.ToSlash(rel), info)...)
		}
	}
	std := importer.Default()
	var imp importerFunc
	// check type-checks files as the package pkgPath and collects the
	// sets in own, the files not checked before.
	check := func(pkgPath string, files, own []*ast.File) *types.Package {
		info := newInfo()
		pkg, err := (&types.Config{Importer: imp}).Check(pkgPath, l.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", pkgPath, err)
		}
		collect(own, info)
		return pkg
	}
	load := func(pkgPath string) *types.Package {
		if l.pkgs[pkgPath] == nil {
			prod := dirs[pkgPath].prod
			l.pkgs[pkgPath] = check(pkgPath, prod, prod)
		}
		return l.pkgs[pkgPath]
	}
	imp = func(pkgPath string) (*types.Package, error) {
		if dirs[pkgPath] == nil {
			return std.Import(pkgPath)
		}
		return load(pkgPath), nil
	}
	for pkgPath, df := range dirs {
		if len(df.prod) > 0 {
			load(pkgPath)
		}
		if len(df.tests) > 0 {
			check(pkgPath, append(slices.Clip(df.prod), df.tests...), df.tests)
		}
		if len(df.xtest) > 0 {
			check(pkgPath+"_test", df.xtest, df.xtest)
		}
	}
	return l
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newInfo records what setsIn reads: struct literal keys (Uses) and field
// selectors (Selections).
func newInfo() *types.Info {
	return &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
}

// setsIn returns every field set in f, resolved through info.
func setsIn(f *ast.File, rel string, info *types.Info) []fieldSet {
	var sets []fieldSet
	for _, decl := range f.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				// A struct literal's key resolves to its field; a map's or
				// an array's key to no field.
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						sets = append(sets, fieldSet{v.Pos(), rel, fn})
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					for sel, ok := lhs.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
						if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							sets = append(sets, fieldSet{s.Obj().Pos(), rel, fn})
						}
					}
				}
			}
			return true
		})
	}
	return sets
}

// lookupStruct finds the named struct type in pkg's scope.
func lookupStruct(pkg *types.Package, name string) (*types.Named, bool) {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil, false
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, false
	}
	_, ok = named.Underlying().(*types.Struct)
	return named, ok
}

// unsetFields returns the exported fields of the struct named that no set
// reaches, leaving out the sets in the Default*/withDefaults functions of
// the file declaring it and, when prodOnly, those in tests.
func unsetFields(fset *token.FileSet, root string, sets []fieldSet, named *types.Named, prodOnly bool) []string {
	declFile, _ := filepath.Rel(root, fset.Position(named.Obj().Pos()).Filename)
	declFile = filepath.ToSlash(declFile)
	set := map[token.Pos]bool{}
	for _, a := range sets {
		if a.file == declFile && (strings.HasPrefix(a.fn, "Default") || a.fn == "withDefaults") {
			continue
		}
		if prodOnly && strings.HasSuffix(a.file, "_test.go") {
			continue
		}
		set[a.field] = true
	}
	var unset []string
	st := named.Underlying().(*types.Struct)
	for i := range st.NumFields() {
		if f := st.Field(i); f.Exported() && !set[f.Pos()] {
			unset = append(unset, f.Name())
		}
	}
	return unset
}
