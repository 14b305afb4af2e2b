package suite

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"polaris/internal/obsv"
)

var update = flag.Bool("update", false, "rewrite testdata/machine.golden and testdata/paper.golden from this build")

var (
	sweepOnce   sync.Once
	sweepRunner *Runner
	sweepPoints []Point
	sweepTrace  bytes.Buffer
	sweepErr    error
)

// paperSweep is the package's one observed sweep at p = 8, on a fresh
// 8-worker Runner whose Observer writes a v2 trace: the golden, the
// figure shapes, the determinism checks and the observability contract
// all read it.
func paperSweep(t *testing.T) (*Runner, []Point) {
	t.Helper()
	sweepOnce.Do(func() {
		sweepRunner = NewRunner()
		sweepRunner.Workers = 8
		sweepRunner.Observer = obsv.NewObserver()
		sweepRunner.Observer.SetTrace(obsv.NewTraceWriter(&sweepTrace))
		sweepPoints, sweepErr = sweepRunner.Sweep(context.Background(), 8)
	})
	if sweepErr != nil {
		t.Fatalf("Sweep: %v", sweepErr)
	}
	return sweepRunner, sweepPoints
}

// TestPaperGolden pins the paper's evaluation at p = 8 as polaris-bench
// prints it: Table 1, Figure 7, Figure 6 and the ablation table, every
// number by value. A change that moves any of them shows up as a diff
// of testdata/paper.golden; regenerate with -update only from a build
// whose numbers are the intended ones.
func TestPaperGolden(t *testing.T) {
	_, pts := paperSweep(t)
	checkGolden(t, "paper.golden", Paper(pts))
}

// checkGolden compares got with testdata/name line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s", name, i+1, g, w)
		}
	}
}
