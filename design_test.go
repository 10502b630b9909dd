package hopsfscl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designMaxBytes is DESIGN.md's size ceiling: the document may shrink, and
// a change that shrinks it for good lowers this, but it may not grow.
const designMaxBytes = 130857

// designElsewhere are the Go-looking names DESIGN.md cites that this
// module does not declare: NDB's own configuration parameter, and a test
// of the benchmark module, which the scan leaves out.
var designElsewhere = map[string]bool{
	"LocationDomainId":                true,
	"TestDriverAllocatesNothingPerOp": true,
}

// TestDesignNamesExist checks that every Go identifier DESIGN.md puts in
// backticks — a pkg.Name, a Type.Member or a CamelCase name — is declared
// somewhere in the module (benchmark/ excluded), so the document cannot go
// on naming code that is gone; and that the document does not grow.
func TestDesignNamesExist(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(text) > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its ceiling of %d", len(text), designMaxBytes)
	}
	decls, pkgs := moduleDecls(t)
	qualified := regexp.MustCompile(`^([A-Za-z]\w*)\.([A-Za-z]\w*)$`)
	camel := regexp.MustCompile(`^[A-Z]\w*[a-z]\w*$`)
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(string(text), -1) {
		name := strings.TrimSuffix(strings.TrimPrefix(m[1], "*"), "()")
		if seen[name] || designElsewhere[name] {
			continue
		}
		seen[name] = true
		if q := qualified.FindStringSubmatch(name); q != nil {
			// pkg.Name of a module package, or Type.Member of a CamelCase
			// type; a variable's member, a metric name or a file name is
			// neither.
			if !(pkgs[q[1]] && camel.MatchString(q[2]) || camel.MatchString(q[1])) {
				continue
			}
		} else if !camel.MatchString(name) {
			continue
		}
		if !decls[name] {
			t.Errorf("DESIGN.md names `%s`, which nothing in the module declares", name)
		}
	}
}

// moduleDecls parses every Go file of the module and returns what they
// declare — each package-level name bare and as pkg.Name, each method and
// struct field as Type.Member — and the module's package names.
func moduleDecls(t *testing.T) (decls, pkgs map[string]bool) {
	decls, pkgs = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); file != "." && (strings.HasPrefix(n, ".") || n == "testdata" || n == "benchmark") {
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
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		pkgs[pkg] = true
		add := func(scope, name string) {
			decls[name] = true
			decls[scope+"."+name] = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(pkg, d.Name.Name)
				if d.Recv != nil {
					add(recvType(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(pkg, s.Name.Name)
						ast.Inspect(s.Type, func(n ast.Node) bool {
							if field, ok := n.(*ast.Field); ok {
								for _, name := range field.Names {
									add(s.Name.Name, name.Name)
								}
							}
							return true
						})
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(pkg, name.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, pkgs
}

// recvType is the name of a method's receiver type.
func recvType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
