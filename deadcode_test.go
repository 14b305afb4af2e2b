package polaris_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// moduleScan is the default-build, non-test code of one module,
// type-checked: every package under root, testdata, dot and underscore
// directories excepted, as the go command sees them.
type moduleScan struct {
	root, mod string
	fset      *token.FileSet
	pkgs      map[string]*scannedPkg // by import path
	std       types.ImporterFrom
	protocols []*types.Interface // stdProtocols
}

type scannedPkg struct {
	path    string
	files   []*ast.File
	imports []string // the module's packages it imports
	pkg     *types.Package
	info    *types.Info
	err     error
	busy    bool
}

// scanModule parses and type-checks every package of the module at
// root, whose module path is mod. Standard-library imports are
// type-checked from source, without cgo.
func scanModule(root, mod string) (*moduleScan, error) {
	s := &moduleScan{root: root, mod: mod, fset: token.NewFileSet(), pkgs: map[string]*scannedPkg{}}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &scannedPkg{path: mod}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		for _, imp := range bp.Imports {
			if imp == mod || strings.HasPrefix(imp, mod+"/") {
				p.imports = append(p.imports, imp)
			}
		}
		s.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The source importer would run cgo on the standard packages that
	// have cgo files; their pure-Go variants declare the same API.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	for _, path := range s.paths() {
		if _, err := s.check(path); err != nil {
			return nil, err
		}
	}
	f, err := parser.ParseFile(s.fset, "protocols.go", stdProtocols, 0)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: s}).Check("protocols", s.fset, []*ast.File{f}, info); err != nil {
		return nil, err
	}
	for _, spec := range f.Decls[len(f.Decls)-1].(*ast.GenDecl).Specs {
		s.protocols = append(s.protocols, info.Types[spec.(*ast.TypeSpec).Type].Type.Underlying().(*types.Interface))
	}
	return s, nil
}

// paths returns the module's import paths, sorted.
func (s *moduleScan) paths() []string {
	out := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		out = append(out, path)
	}
	slices.Sort(out)
	return out
}

// check type-checks one package of the module after the module's
// packages it imports.
func (s *moduleScan) check(path string) (*types.Package, error) {
	p := s.pkgs[path]
	if p.pkg != nil || p.err != nil {
		return p.pkg, p.err
	}
	if p.busy {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.busy = true
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: s}
	p.pkg, p.err = conf.Check(path, s.fset, p.files, p.info)
	if p.err != nil {
		p.err = fmt.Errorf("type-checking %s: %w", path, p.err)
	}
	return p.pkg, p.err
}

func (s *moduleScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, s.root, 0)
}

func (s *moduleScan) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if _, ok := s.pkgs[path]; ok {
		return s.check(path)
	}
	return s.std.ImportFrom(path, s.root, 0)
}

// edges returns the module's import edges, "from to", sorted.
func (s *moduleScan) edges() []string {
	var out []string
	for path, p := range s.pkgs {
		for _, imp := range p.imports {
			out = append(out, path+" "+imp)
		}
	}
	slices.Sort(out)
	return out
}

// reaches reports whether package from imports to, directly or not.
func (s *moduleScan) reaches(from, to string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(p string) bool {
		if p == to {
			return true
		}
		if seen[p] {
			return false
		}
		seen[p] = true
		return slices.ContainsFunc(s.pkgs[p].imports, walk)
	}
	return walk(from)
}

// rel is an import path's directory inside the module: "internal/ir",
// or "." for the module's root.
func (s *moduleScan) rel(path string) string {
	if path == s.mod {
		return "."
	}
	return strings.TrimPrefix(path, s.mod+"/")
}

// declName names a package-level function, method or type by its
// package's directory: "internal/ir.Program.Add".
func (s *moduleScan) declName(obj types.Object) string {
	name := s.rel(obj.Pkg().Path()) + "."
	if recv := receiver(obj); recv != nil {
		name += recv.Obj().Name() + "."
	}
	return name + obj.Name()
}

// receiver returns the named type of a method's receiver, and nil for
// any other object.
func receiver(obj types.Object) *types.Named {
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// origin maps a use of an instantiated generic function or method to
// its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// unread returns, sorted, the package-level functions, methods and
// types declared in the packages under the directory prefixes (such as
// "internal/") that no code of the module reads. A use inside the
// declaration itself, or as a method's receiver, is not a read. main
// and init count as read, and so does a method that may be called
// through an interface: its receiver's type, or a pointer to it,
// implements an interface of the module or one of stdProtocols that
// declares the method's name.
func (s *moduleScan) unread(prefixes ...string) []string {
	read := map[types.Object]bool{}
	ifaces := slices.Clone(s.protocols)
	var decls []types.Object
	for _, path := range s.paths() {
		p := s.pkgs[path]
		reported := slices.ContainsFunc(prefixes, func(pre string) bool { return strings.HasPrefix(s.rel(path)+"/", pre) })
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self []types.Object
				fd, _ := d.(*ast.FuncDecl)
				if fd != nil {
					self = append(self, p.info.Defs[fd.Name])
				} else {
					for _, spec := range d.(*ast.GenDecl).Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							self = append(self, p.info.Defs[ts.Name])
						}
					}
				}
				for _, obj := range self {
					if reported && obj.Name() != "_" {
						decls = append(decls, obj)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FieldList:
						return fd == nil || n != fd.Recv
					case *ast.Ident:
						if obj, ok := p.info.Uses[n]; ok && !slices.Contains(self, origin(obj)) {
							read[origin(obj)] = true
						}
					case *ast.InterfaceType:
						ifaces = append(ifaces, p.info.Types[n].Type.(*types.Interface))
					}
					return true
				})
			}
		}
	}
	var out []string
	for _, obj := range decls {
		_, isFunc := obj.(*types.Func)
		recv := receiver(obj)
		switch {
		case read[obj]:
		case recv != nil && viaInterface(recv, obj.Name(), ifaces):
		case isFunc && recv == nil && (obj.Name() == "main" || obj.Name() == "init"):
		default:
			out = append(out, s.declName(obj))
		}
	}
	slices.Sort(out)
	return out
}

// viaInterface reports whether the method of recv named method may be
// called through one of the interfaces. A generic receiver type matches
// an interface by the method's name alone.
func viaInterface(recv *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		declares := false
		for i := range it.NumMethods() {
			declares = declares || it.Method(i).Name() == method
		}
		if declares && (recv.TypeParams().Len() > 0 || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// stdProtocols declares the standard library's interfaces through which
// it calls methods of the values the module hands it.
const stdProtocols = `package protocols

import (
	"fmt"
	"io"
	"net/http"
)

type (
	_ error
	_ fmt.Stringer
	_ io.StringWriter                           // io.WriteString
	_ http.ResponseWriter                       // the server's handlers
	_ interface{ Unwrap() error }               // errors.Is, errors.As
	_ interface{ Unwrap() http.ResponseWriter } // http.ResponseController
)
`

// readAllowlist reads the names of "name  reason" lines; blank and #
// lines are skipped. A line without a reason is an error.
func readAllowlist(file string) (map[string]bool, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %q has no reason", file, n, name)
		}
		out[name] = true
	}
	return out, sc.Err()
}

// unreadFindings checks the module's unread declarations under the
// prefixes against an allowlist: each unread name not on the list is a
// finding, and so is each listed name that is read or gone.
func unreadFindings(s *moduleScan, allow map[string]bool, prefixes ...string) []string {
	var out []string
	unread := s.unread(prefixes...)
	for _, name := range unread {
		if !allow[name] {
			out = append(out, "unread: "+name)
		}
	}
	for name := range allow {
		if !slices.Contains(unread, name) {
			out = append(out, "stale allowlist line: "+name)
		}
	}
	slices.Sort(out)
	return out
}

// TestNoUnreadCode: every package-level function, method and type under
// internal/ and cmd/ has a reader in the module's non-test code, or a
// line in testdata/unread.txt saying why not; no line there is stale.
// The module's import edges are the ones testdata/imports.txt pins
// (rewrite it with -update), the service packages do not reach the
// paper's suite, and obsv, the decision codec's home, imports nothing
// from the module.
func TestNoUnreadCode(t *testing.T) {
	s, err := scanModule(".", "polaris")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/unread.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unreadFindings(s, allow, "internal/", "cmd/") {
		t.Error(f)
	}

	got := strings.Join(s.edges(), "\n") + "\n"
	const pin = "testdata/imports.txt"
	if *updateAPI {
		if err := os.WriteFile(pin, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pin)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, e := range g {
			if !slices.Contains(w, e) {
				t.Errorf("import edge not in %s: %s", pin, e)
			}
		}
		for _, e := range w {
			if !slices.Contains(g, e) {
				t.Errorf("import edge in %s is gone: %s", pin, e)
			}
		}
	}

	for _, from := range []string{"polaris/internal/server", "polaris/internal/fabric"} {
		if s.reaches(from, "polaris/internal/suite") {
			t.Errorf("%s depends on polaris/internal/suite", from)
		}
	}
	if imps := s.pkgs["polaris/internal/obsv"].imports; len(imps) > 0 {
		t.Errorf("polaris/internal/obsv imports packages of the module: %v", imps)
	}
}

// TestUnreadCheckerFixture runs the checker on the two-package module
// under testdata/deadcode: it must report the one unread function and
// the one stale allowlist line, and nothing else, so a checker that
// skips methods, ignores the allowlist or misses a call through an
// interface fails here.
func TestUnreadCheckerFixture(t *testing.T) {
	s, err := scanModule("testdata/deadcode", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/deadcode/unread.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := unreadFindings(s, allow, "internal/", "cmd/")
	want := []string{"stale allowlist line: internal/lib.T.Used", "unread: internal/lib.Unread"}
	if !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}
