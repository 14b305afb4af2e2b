package codegen

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
	"polaris/internal/rt"
	"polaris/internal/suite"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden emitted-Go files")

// perProgram returns an emitted program without the runtime, which must
// follow its const defaultProcs line verbatim.
func perProgram(out string) (string, error) {
	const procs = "\nconst defaultProcs = "
	i := strings.Index(out, procs)
	if i < 0 {
		return "", errors.New("no const defaultProcs line")
	}
	i += len(procs)
	j := i + strings.IndexByte(out[i:], '\n') + 1
	if j <= i || !strings.HasPrefix(out[j:], rt.Runtime) {
		return "", errors.New("the const defaultProcs line is not followed by rt.Runtime")
	}
	return out[:j] + out[j+len(rt.Runtime):], nil
}

// TestEmitGoGolden pins the exact emitted Go for the flagship programs,
// less the runtime (TestEmitGoSums holds that part). A diff
// here means the lowering changed: inspect it, re-run the native
// oracle, then refresh with
//
//	go test ./internal/codegen -run TestEmitGoGolden -update
func TestEmitGoGolden(t *testing.T) {
	for _, name := range []string{"trfd", "ocean", "bdna", "mdg", "track"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, ok := suite.ByName(name)
			if !ok {
				t.Fatalf("unknown suite program %q", name)
			}
			res, err := core.Compile(p.Parse(), core.PolarisOptions())
			if err != nil {
				t.Fatal(err)
			}
			out, err := EmitGo(res, GoOptions{Processors: 8, Label: name})
			if err != nil {
				t.Fatal(err)
			}
			got, err := perProgram(out)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".go.golden")
			if *updateGolden {
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
				t.Fatalf("missing golden (refresh with -update): %v", err)
			}
			if string(want) != got {
				t.Errorf("emitted Go for %s differs from %s; verify with the native oracle, then refresh with -update", name, path)
			}
		})
	}
}

// TestEmitGoDeterministic catches map-iteration leaks into the output:
// two emissions of the same result must be byte-identical.
func TestEmitGoDeterministic(t *testing.T) {
	p, _ := suite.ByName("mdg")
	res, err := core.Compile(p.Parse(), core.PolarisOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := EmitGo(res, GoOptions{Processors: 8, Label: "mdg"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmitGo(res, GoOptions{Processors: 8, Label: "mdg"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("EmitGo is not deterministic across calls")
	}
}

const goSumsPath = "testdata/emitgo.sha256"

// refusedSrc is a program the Go back end refuses partway through its
// main unit, after the runtime and the COMMON state are written: a
// MAX of an integer and a real has no static kind.
const refusedSrc = `
      PROGRAM P
      INTEGER I
      REAL X, A(10)
      DO I = 1, 10
        A(I) = MAX(I, X)
      END DO
      END
`

// TestEmitGoSums holds EmitGo to the bytes the commit before the
// fmt-free writer produced, for every program the suite_cold workload
// emits and for mega10k (testdata/emitgo.sha256 was written by that
// commit with -update, and re-pinned once since, when two comments of
// the runtime were reworded), and holds that each carries internal/rt's
// runtime verbatim after its const defaultProcs line. A program the
// back end refuses is pinned by its refusal reason in place of a sum.
func TestEmitGoSums(t *testing.T) {
	names := []string{}
	src := map[string]string{}
	for _, p := range suite.All() {
		names = append(names, p.Name)
		src[p.Name] = p.Source
	}
	names = append(names, "mega10k", "refused")
	src["mega10k"] = fuzzgen.MegaCorpus()[0].Generate().Source
	src["refused"] = refusedSrc
	emit := func(name string) string {
		res, err := core.Compile(parser.MustParse(src[name]), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := EmitGo(res, GoOptions{Processors: 8, Label: name})
		if ue, ok := err.(*UnsupportedError); ok {
			return "refused  " + name + "  " + ue.Reason
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := perProgram(out); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return sha256Hex(out) + "  " + name
	}
	if *updateGolden {
		var out strings.Builder
		for _, name := range names {
			out.WriteString(emit(name) + "\n")
		}
		if err := os.WriteFile(goSumsPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goSumsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(names) {
		t.Fatalf("%s has %d lines, want %d", goSumsPath, len(want), len(names))
	}
	for i, name := range names {
		if got := emit(name); got != want[i] {
			t.Errorf("%s: emitted Go reads\n\t%s\nthe parent's\n\t%s", name, got, want[i])
		}
	}
}
