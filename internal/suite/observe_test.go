package suite

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/machine"
	"polaris/internal/obsv"
)

// TestObservabilityEndToEnd reads the package's sweep, whose Runner
// shares one Observer and one TraceWriter across its pool workers (the
// -j N shape the CLIs use), and checks the full observability contract
// in one pass:
//
//   - the shared trace stream is gapless and totally ordered under
//     concurrency (run with -race, this also proves thread safety),
//     and holds one final decision record per (label, loop);
//   - every loop of every program gets a final decision record naming
//     an enabling technique or a blocking dependence;
//   - the flagship loops of the paper's evaluation explain themselves
//     with stable, exact strings;
//   - runtime metrics reconcile with compile-time verdicts: only loops
//     the compiler declared DOALL (or LRPD) execute in parallel, and
//     the parallel-coverage fraction is consistent everywhere it is
//     reported.
func TestObservabilityEndToEnd(t *testing.T) {
	r, pts := paperSweep(t)
	obs := r.Observer
	if err := obs.TraceErr(); err != nil {
		t.Fatalf("trace writer error: %v", err)
	}

	t.Run("trace-ordered", func(t *testing.T) {
		envs, err := obsv.ReadTrace(bytes.NewReader(sweepTrace.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace: %v", err)
		}
		if len(envs) == 0 {
			t.Fatal("empty trace stream")
		}
		kinds := map[string]int{}
		finals := map[[2]string]int{}
		for i, e := range envs {
			if e.Seq != int64(i) {
				t.Fatalf("line %d carries seq %d: stream not totally ordered", i, e.Seq)
			}
			kinds[e.Type]++
			if d := e.Decision; d != nil && d.Final {
				finals[[2]string{d.Label, d.Loop}]++
			}
		}
		for key, n := range finals {
			if n != 1 {
				t.Errorf("%d final records for label %q, loop %s", n, key[0], key[1])
			}
		}
		for _, k := range []string{obsv.TypeSpan, obsv.TypeDecision, obsv.TypeRun} {
			if kinds[k] == 0 {
				t.Errorf("trace stream has no %q records (got %v)", k, kinds)
			}
		}
	})

	t.Run("every-loop-explained", func(t *testing.T) {
		for _, p := range append(All(), Track()) {
			finals := obs.FinalDecisions(p.Name)
			if len(finals) == 0 {
				t.Errorf("%s: no final decision records", p.Name)
				continue
			}
			for _, d := range finals {
				switch d.Verdict {
				case "doall", "lrpd":
					if d.Technique == "" && d.Detail == "" {
						t.Errorf("%s %s: %s verdict names no enabling technique", p.Name, d.Loop, d.Verdict)
					}
				case "serial":
					if d.Blocker == "" && d.Detail == "" {
						t.Errorf("%s %s: serial verdict names no blocker", p.Name, d.Loop)
					}
				default:
					t.Errorf("%s %s: unknown verdict %q", p.Name, d.Loop, d.Verdict)
				}
			}
			for _, line := range obs.Explanations(p.Name) {
				ok := strings.Contains(line, ": DOALL — ") ||
					strings.Contains(line, ": LRPD — ") ||
					strings.Contains(line, ": serial — blocked by ")
				if !ok || strings.HasSuffix(line, "— ") || strings.HasSuffix(line, "blocked by ") {
					t.Errorf("%s: malformed explanation %q", p.Name, line)
				}
			}
		}
	})

	t.Run("flagship-explanations", func(t *testing.T) {
		want := []struct{ label, loop, line string }{
			{"trfd", "OLDA/L10",
				"OLDA/L10 DO I: DOALL — independence proved by the range test; scalar privatization of J, K, X"},
			{"ocean", "OCEAN/L30",
				"OCEAN/L30 DO K: DOALL — independence proved by the range test under permuted loop order [J K I]; scalar privatization of I, J"},
			{"bdna", "BDNA/L30",
				"BDNA/L30 DO I: DOALL — independence proved by the range test; array privatization of A, IND; scalar privatization of J, K, L, M, P, R"},
			{"mdg", "MDG/L50",
				"MDG/L50 DO I: DOALL — independence proved by the linear dependence tests; array privatization of WRK; scalar privatization of E, J; sum histogram reduction on H"},
			{"mdg", "MDG/L40",
				"MDG/L40 DO STEP: serial — blocked by assumed dependence on WRK"},
			{"track", "TRACK/L40",
				"TRACK/L40 DO I: LRPD — speculative run-time PD test on X"},
		}
		for _, w := range want {
			if got := obs.Explain(w.label, w.loop); got != w.line {
				t.Errorf("Explain(%s, %s)\n got %q\nwant %q", w.label, w.loop, got, w.line)
			}
		}
	})

	t.Run("metrics-reconcile", func(t *testing.T) {
		coverage := map[string]float64{}
		for _, pt := range pick(pts, Full, "") {
			coverage[pt.Program] = pt.Coverage
		}
		for _, run := range obs.Runs() {
			doall, lrpd := map[string]bool{}, map[string]bool{}
			for _, d := range obs.FinalDecisions(run.Label) {
				switch d.Verdict {
				case "doall":
					doall[d.Loop] = true
				case "lrpd":
					lrpd[d.Loop] = true
				}
			}
			for _, lm := range run.Loops {
				if !strings.Contains(lm.Loop, "/L") {
					t.Errorf("%s: loop metric %q has no stable compile-time ID", run.Label, lm.Loop)
				}
				switch lm.Kind {
				case "doall":
					if !doall[lm.Loop] {
						t.Errorf("%s: loop %s executed as DOALL without a DOALL verdict", run.Label, lm.Loop)
					}
				case "lrpd":
					if !lrpd[lm.Loop] {
						t.Errorf("%s: loop %s speculated without an LRPD verdict", run.Label, lm.Loop)
					}
				}
				if lm.Execs <= 0 || lm.SerialCycles < 0 || lm.ParallelCycles < 0 {
					t.Errorf("%s %s: implausible metric %+v", run.Label, lm.Loop, lm)
				}
			}
			if run.TotalWork <= 0 {
				t.Errorf("%s: no work recorded", run.Label)
				continue
			}
			wantCov := float64(run.ParallelWork) / float64(run.TotalWork)
			if math.Abs(run.Coverage-wantCov) > 1e-12 {
				t.Errorf("%s: coverage %v != parallel/total %v", run.Label, run.Coverage, wantCov)
			}
			if run.Coverage < 0 || run.Coverage > 1 {
				t.Errorf("%s: coverage %v out of range", run.Label, run.Coverage)
			}
			if run.Coverage > 0 && len(doall) == 0 && len(lrpd) == 0 {
				t.Errorf("%s: parallel coverage %v with no parallel verdicts", run.Label, run.Coverage)
			}
			if len(run.Loops) > 0 && run.Coverage == 0 {
				t.Errorf("%s: parallel loops executed but coverage is 0", run.Label)
			}
			if rowCov, ok := coverage[run.Label]; ok && math.Abs(run.Coverage-rowCov) > 1e-9 {
				t.Errorf("%s: run coverage %v disagrees with its point's coverage %v", run.Label, run.Coverage, rowCov)
			}
		}
		// The TRACK run must surface speculation outcomes: the LRPD
		// loop passes most invocations, and the per-loop breakdown
		// carries them under the stable loop ID of the verdict.
		sawTrack := false
		for _, run := range obs.Runs() {
			if run.Label != "track" {
				continue
			}
			sawTrack = true
			if run.PDPasses == 0 {
				t.Errorf("track: no LRPD passes recorded (%+v)", run)
			}
			lrpdLoop := false
			for _, lm := range run.Loops {
				if lm.Kind == "lrpd" && lm.Loop == "TRACK/L40" && lm.PDPasses > 0 {
					lrpdLoop = true
				}
			}
			if !lrpdLoop {
				t.Errorf("track: no lrpd loop metric for TRACK/L40: %+v", run.Loops)
			}
		}
		if !sawTrack {
			t.Error("no run metrics recorded for track")
		}
	})

	t.Run("bench-report", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, pts); err != nil {
			t.Fatal(err)
		}
		var rep struct {
			SchemaVersion string `json:"schema_version"`
			Programs      []struct {
				Name             string  `json:"name"`
				SerialCycles     int64   `json:"serial_cycles"`
				PolarisSpeedup   float64 `json:"polaris_speedup"`
				ParallelCoverage float64 `json:"parallel_coverage"`
			} `json:"programs"`
			PolarisGeoMean float64 `json:"polaris_geomean"`
			PFAGeoMean     float64 `json:"pfa_geomean"`
		}
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatalf("report does not unmarshal: %v", err)
		}
		if rep.SchemaVersion != obsv.SchemaVersion {
			t.Errorf("schema version %q, want %q", rep.SchemaVersion, obsv.SchemaVersion)
		}
		if len(rep.Programs) != len(All()) {
			t.Errorf("report covers %d programs, want %d", len(rep.Programs), len(All()))
		}
		if rep.PolarisGeoMean <= rep.PFAGeoMean {
			t.Errorf("Polaris geomean %v should beat PFA %v", rep.PolarisGeoMean, rep.PFAGeoMean)
		}
		for _, p := range rep.Programs {
			if p.ParallelCoverage < 0 || p.ParallelCoverage > 1 {
				t.Errorf("%s: coverage %v out of range", p.Name, p.ParallelCoverage)
			}
			if p.PolarisSpeedup <= 0 || p.SerialCycles <= 0 {
				t.Errorf("%s: implausible row %+v", p.Name, p)
			}
		}
	})
}

// TestAblationProvenanceLabels checks that each configuration of the
// package's observed sweep lands its provenance under its own label:
// the bare program name holds exactly the final records a direct
// full-pipeline compile gives (one per loop), and
// "ocean/-loop permutation" holds the ablated verdict.
func TestAblationProvenanceLabels(t *testing.T) {
	ctx := context.Background()
	r, _ := paperSweep(t)
	p, _ := ByName("ocean")
	direct := obsv.NewObserver()
	opt := core.PolarisOptions()
	opt.TraceLabel = p.Name
	opt.Observer = direct
	if _, err := core.CompileContext(ctx, p.Parse(), opt); err != nil {
		t.Fatalf("compile: %v", err)
	}
	finals := func(o *obsv.Observer) []obsv.Decision {
		var out []obsv.Decision
		for _, d := range o.Decisions() {
			if d.Final && d.Label == p.Name {
				out = append(out, d)
			}
		}
		return out
	}
	got, want := finals(r.Observer), finals(direct)
	if len(want) == 0 {
		t.Fatal("direct compile recorded no final decisions")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("final records under %q:\n got %d: %+v\nwant %d: %+v", p.Name, len(got), got, len(want), want)
	}
	const ablated = "ocean/-loop permutation"
	if got := r.Observer.Explain(ablated, "OCEAN/L30"); !strings.Contains(got, ": serial — ") {
		t.Errorf("Explain(%s, OCEAN/L30) = %q, want a serial verdict", ablated, got)
	}
}

// TestTraceSchemaV2Golden pins the trace-schema v2 byte layout for one
// suite program: one compilation plus one 8-processor execution of
// TRFD, with the (nondeterministic) span wall times zeroed. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/suite -run TraceSchemaV2Golden
// after an intentional schema or pipeline change.
func TestTraceSchemaV2Golden(t *testing.T) {
	p, ok := ByName("trfd")
	if !ok {
		t.Fatal("suite program trfd missing")
	}
	obs := obsv.NewObserver()
	var buf bytes.Buffer
	obs.SetTrace(obsv.NewTraceWriter(&buf))

	opt := core.PolarisOptions()
	opt.TraceLabel = p.Name
	opt.Observer = obs
	res, err := core.CompileContext(context.Background(), p.Parse(), opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if got, want := len(obs.FinalDecisions(p.Name)), len(res.Loops); got != want {
		t.Fatalf("%d final decisions for %d analyzed loops", got, want)
	}
	in := interp.New(res.Program.Clone(), machine.Default().WithProcessors(8))
	in.Parallel = true
	if err := in.RunContext(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	obs.Run(in.Metrics(p.Name))
	if err := obs.TraceErr(); err != nil {
		t.Fatalf("trace: %v", err)
	}

	envs, err := obsv.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	var out bytes.Buffer
	for _, e := range envs {
		if e.Span != nil {
			e.Span.DurationNS = 0
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}

	golden := filepath.Join("testdata", "trfd_trace_v2.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", golden, len(envs))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines := strings.Split(out.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			g, w := "", ""
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("trace line %d diverges from golden\n got %s\nwant %s\n(regenerate with UPDATE_GOLDEN=1 if intentional)", i+1, g, w)
			}
		}
		t.Fatal("trace diverges from golden in length only")
	}
}
