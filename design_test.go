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

	"hopsfscl/internal/bench"
)

// designMaxBytes is DESIGN.md's size ceiling: the document may shrink, and
// a change that shrinks it for good lowers this, but it may not grow.
const designMaxBytes = 64116

// designElsewhere are the Go-looking names the documents cite that this
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
	text := readDoc(t, "DESIGN.md")
	if len(text) > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its ceiling of %d", len(text), designMaxBytes)
	}
	decls, pkgs := moduleDecls(t)
	checkDocNames(t, "DESIGN.md", text, decls, pkgs)
}

// TestDocNamesExist holds README.md and EXPERIMENTS.md to DESIGN.md's
// backticked-name check, with no size ceiling.
func TestDocNamesExist(t *testing.T) {
	decls, pkgs := moduleDecls(t)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		checkDocNames(t, doc, readDoc(t, doc), decls, pkgs)
	}
}

// checkDocNames reports each Go-looking backticked name in text that
// nothing in decls declares.
func checkDocNames(t *testing.T, doc, text string, decls, pkgs map[string]bool) {
	t.Helper()
	qualified := regexp.MustCompile(`^([A-Za-z]\w*)\.([A-Za-z]\w*)$`)
	camel := regexp.MustCompile(`^[A-Z]\w*[a-z]\w*$`)
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(text, -1) {
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
			t.Errorf("%s names `%s`, which nothing in the module declares", doc, name)
		}
	}
}

// TestDesignRefsNameSections checks that every DESIGN § reference — in
// prose or across a comment's line break: "DESIGN §9.1", "`DESIGN.md` §6" —
// in the module's Go, in README.md, EXPERIMENTS.md and ROADMAP.md and in
// the repository's skill notes names a section DESIGN.md has, and so does
// every bare numbered § reference inside DESIGN.md. CHANGES.md is history
// and keeps the numbers it had.
func TestDesignRefsNameSections(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#{2,3} ([0-9]+[a-z]?(?:\.[0-9]+)?)\.? `).FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	check := func(file, text string, ref *regexp.Regexp) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN §%s, which DESIGN.md has no heading for", file, m[1])
			}
		}
	}
	check("DESIGN.md", design, regexp.MustCompile(`§([0-9]+[a-z]?(?:\.[0-9]+)?)`))
	files := append([]string{"README.md", "EXPERIMENTS.md", "ROADMAP.md"}, moduleGoFiles(t)...)
	err := filepath.WalkDir(filepath.Join(".claude", "skills"), func(file string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, file)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile("DESIGN(?:\\.md)?`?(?:\\s|//)*§ ?([0-9]+[a-z]?(?:\\.[0-9]+)?)")
	for _, file := range files {
		check(file, readDoc(t, file), ref)
	}
}

// TestDesignInventoryCoversEveryPackage checks that §3's inventory has a row
// for every directory holding non-test Go (benchmark/ excluded; the root is
// the row `hopsfscl`), and that every row names such a directory.
func TestDesignInventoryCoversEveryPackage(t *testing.T) {
	rows := tableRows(t, designSection(t, "3"))
	named := map[string]bool{}
	for _, row := range rows {
		m := regexp.MustCompile("^`([^`]+)`").FindStringSubmatch(row)
		if m == nil {
			t.Errorf("§3 row %q does not open with a backticked package", row)
			continue
		}
		named[m[1]] = true
	}
	dirs := map[string]bool{}
	for _, file := range moduleGoFiles(t) {
		if !strings.HasSuffix(file, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(file))
			if dir == "." {
				dir = "hopsfscl"
			}
			dirs[dir] = true
		}
	}
	for dir := range dirs {
		if !named[dir] {
			t.Errorf("DESIGN.md §3 has no row for %s", dir)
		}
	}
	for name := range named {
		if !dirs[name] {
			t.Errorf("DESIGN.md §3 has a row for %s, which holds no non-test Go", name)
		}
	}
}

// TestDesignIndexesEveryExperiment checks that §4's index has a row for
// every experiment hopsbench runs, under its id.
func TestDesignIndexesEveryExperiment(t *testing.T) {
	ids := map[string]bool{}
	for _, row := range tableRows(t, designSection(t, "4")) {
		ids[strings.TrimSpace(strings.SplitN(row, "|", 2)[0])] = true
	}
	for _, e := range bench.Experiments {
		if !ids[e.ID] {
			t.Errorf("DESIGN.md §4 has no row for experiment %s", e.ID)
		}
	}
}

// TestReadmeSLOSampleMatchesGolden checks README's `hopstrace slo` sample
// against the detection golden, which the same campaign writes: every
// ttd= line and every HEALTH, ALERT or RESOLVE line README quotes is a line
// of the golden, runs of spaces aside.
func TestReadmeSLOSampleMatchesGolden(t *testing.T) {
	golden := map[string]bool{}
	for _, line := range strings.Split(readDoc(t, filepath.Join("internal", "chaos", "testdata", "detection_seed1.golden")), "\n") {
		golden[strings.Join(strings.Fields(line), " ")] = true
	}
	quoted := 0
	for _, line := range strings.Split(readDoc(t, "README.md"), "\n") {
		f := strings.Fields(line)
		if !strings.Contains(line, "ttd=") && !(len(f) > 1 && (f[1] == "HEALTH" || f[1] == "ALERT" || f[1] == "RESOLVE")) {
			continue
		}
		quoted++
		if !golden[strings.Join(f, " ")] {
			t.Errorf("README quotes %q, which detection_seed1.golden does not have", strings.TrimSpace(line))
		}
	}
	if quoted == 0 {
		t.Error("README quotes no line of the hopstrace slo sample")
	}
}

// readDoc reads a file of the repository as text.
func readDoc(t *testing.T, file string) string {
	t.Helper()
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// designSection returns the body of DESIGN.md's "## <num>." section.
func designSection(t *testing.T, num string) string {
	t.Helper()
	text := readDoc(t, "DESIGN.md")
	head := "\n## " + num + ". "
	i := strings.Index(text, head)
	if i < 0 {
		t.Fatalf("DESIGN.md has no section %s", num)
	}
	body := text[i+len(head):]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j]
	}
	return body
}

// tableRows returns the body rows of the markdown tables in text, each
// without its leading "| ": a header row, followed by its "|---" line, is
// left out.
func tableRows(t *testing.T, text string) []string {
	t.Helper()
	lines := strings.Split(text, "\n")
	var rows []string
	for i, line := range lines {
		header := i+1 < len(lines) && strings.HasPrefix(lines[i+1], "|---")
		if strings.HasPrefix(line, "| ") && !header {
			rows = append(rows, strings.TrimPrefix(line, "| "))
		}
	}
	if len(rows) == 0 {
		t.Fatal("no table rows")
	}
	return rows
}

// moduleGoFiles lists every Go file of the module, tests included;
// benchmark/ is a module of its own and is left out.
func moduleGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
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
		if strings.HasSuffix(file, ".go") {
			files = append(files, file)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// moduleDecls parses every Go file of the module and returns what they
// declare — each package-level name bare and as pkg.Name, each method and
// struct field as Type.Member — and the module's package names.
func moduleDecls(t *testing.T) (decls, pkgs map[string]bool) {
	decls, pkgs = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range moduleGoFiles(t) {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
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
