package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// allowedInternal is everything the harness may name from the
// repository's internal packages. A later change that renames one of
// these needs a benchmark change first; anything else under internal/
// may move freely. README.md, "What the harness is coupled to", lists
// the same set.
var allowedInternal = map[string][]string{
	"polaris/internal/lexer":    {"Lex"},
	"polaris/internal/parser":   {"ParseProgram"},
	"polaris/internal/core":     {"CompileContext", "PolarisOptions"},
	"polaris/internal/codegen":  {"EmitFortran", "EmitGo"},
	"polaris/internal/symbolic": {"ReadProverStats"},
	"polaris/internal/suite":    {"All"},
	"polaris/internal/fuzzgen":  {"MegaCorpus", "GenerateMega", "EditOneUnit"},
	"polaris/internal/oracle":   {"Check", "Config"},
	"polaris/internal/fabric":   {"New", "Config"},
	"polaris/internal/server":   {"New", "Config"},
}

// forbidden are the names ROADMAP items 1 and 2 slate for deletion. The
// harness may not select them from any value or package, package
// polaris included. (parser.Error, also on that list, is excluded by
// parser's allowed set above.)
var forbidden = []string{
	"Parallelize", "ParallelizeWith", "ParallelizeBaseline", "AnnotatedSource",
	"TraceWriter", "NewTraceWriter", "WithTrace", "WithTraceLabel",
	"CompileCached", "CompileOutcome", "CompileBaselineOutcome", "CompileBaseline", "CompileSerial",
	"WithUnitWorkers", "UnitWorkers", "SetDiffCheck",
}

// TestHarnessCoupling parses the package's own non-test sources and
// fails on an import outside the allowed set, a selector outside an
// allowed package's list, or a forbidden name.
func TestHarnessCoupling(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{}
	for _, n := range forbidden {
		banned[n] = true
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			local := map[string]string{} // identifier in this file → import path
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path != "polaris" && !strings.HasPrefix(path, "polaris/") {
					continue
				}
				if _, ok := allowedInternal[path]; !ok && path != "polaris" {
					t.Errorf("%s imports %s, which is outside the harness's allowed set", name, path)
				}
				ident := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					ident = imp.Name.Name
				}
				local[ident] = path
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pos := fset.Position(sel.Pos())
				if banned[sel.Sel.Name] {
					t.Errorf("%s: selects %s, which is slated for deletion", pos, sel.Sel.Name)
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || x.Obj != nil { // a local variable shadows the package name
					return true
				}
				path, ok := local[x.Name]
				if !ok || path == "polaris" {
					return true
				}
				for _, allowed := range allowedInternal[path] {
					if sel.Sel.Name == allowed {
						return true
					}
				}
				t.Errorf("%s: %s.%s is outside the harness's allowed set for %s", pos, x.Name, sel.Sel.Name, path)
				return true
			})
		}
	}
}
