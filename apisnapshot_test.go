package polaris_test

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt from the package's exported API")

// TestAPISnapshot lists every exported identifier of package polaris
// with its signature and compares the list with testdata/api.txt, so
// surface growth or loss is a visible diff. Run with -update to accept
// a change.
func TestAPISnapshot(t *testing.T) {
	got := strings.Join(apiLines(t), "\n") + "\n"
	const path = "testdata/api.txt"
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s (run with -update to accept):\n%s", path, lineDiff(string(want), got))
	}
}

// apiLines renders the package's exported surface one identifier per
// line: functions and methods with their signatures, types with their
// definitions (struct and interface members each on a line of their
// own), constants and variables with their types.
func apiLines(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := doc.New(pkgs["polaris"], "polaris", 0)
	render := func(n any) string {
		var b strings.Builder
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, s := range v.Decl.Specs {
				spec := s.(*ast.ValueSpec)
				for _, n := range spec.Names {
					if n.IsExported() {
						line := kind + " " + n.Name
						if spec.Type != nil {
							line += " " + render(spec.Type)
						}
						lines = append(lines, line)
					}
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl := *f.Decl
			decl.Body, decl.Doc = nil, nil
			lines = append(lines, render(&decl))
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, ty := range pkg.Types {
		spec := ty.Decl.Specs[0].(*ast.TypeSpec)
		switch typ := spec.Type.(type) {
		case *ast.StructType:
			lines = append(lines, "type "+ty.Name+" struct")
			for _, f := range typ.Fields.List {
				for _, n := range f.Names {
					if n.IsExported() {
						lines = append(lines, "field "+ty.Name+"."+n.Name+" "+render(f.Type))
					}
				}
				if len(f.Names) == 0 {
					lines = append(lines, "field "+ty.Name+" embeds "+render(f.Type))
				}
			}
		case *ast.InterfaceType:
			lines = append(lines, "type "+ty.Name+" interface")
			for _, m := range typ.Methods.List {
				for _, n := range m.Names {
					lines = append(lines, "method "+ty.Name+"."+n.Name+" "+render(m.Type))
				}
			}
		default:
			eq := " "
			if spec.Assign.IsValid() {
				eq = " = "
			}
			lines = append(lines, "type "+ty.Name+eq+render(spec.Type))
		}
		values("const", ty.Consts)
		values("var", ty.Vars)
		funcs(ty.Funcs)
		funcs(ty.Methods)
	}
	sort.Strings(lines)
	return lines
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
