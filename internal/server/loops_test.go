package server

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// loopsNameTheirLoops fails t unless res.Loops holds one record per loop
// of res.Program, in program order, each naming its loop by (Unit, ID)
// and agreeing with the loop's ParInfo on Parallel, Reason and the
// run-time test's arrays: the records carry no pointer into the program,
// so this is what ties a verdict to the loop it is about.
func loopsNameTheirLoops(t *testing.T, path string, res *core.Result) {
	t.Helper()
	k := 0
	for _, u := range res.Program.Units {
		for _, d := range ir.Loops(u.Body) {
			if k >= len(res.Loops) {
				t.Fatalf("%s: loop %s of unit %s has no record (%d records)", path, d.ID, u.Name, len(res.Loops))
			}
			lr := res.Loops[k]
			k++
			switch {
			case lr.Unit != u.Name || lr.ID != d.ID:
				t.Fatalf("%s: record %d names %s %s, the program's loop %d is %s %s", path, k-1, lr.Unit, lr.ID, k-1, u.Name, d.ID)
			case d.Par == nil:
				t.Fatalf("%s: loop %s carries no annotation", path, d.ID)
			case d.Par.Parallel != lr.Parallel || d.Par.Reason != lr.Reason || !slices.Equal(d.Par.LRPD, lr.RunTimeTest):
				t.Errorf("%s: loop %s: the record says parallel=%t %q %v, the annotation %t %q %v",
					path, d.ID, lr.Parallel, lr.Reason, lr.RunTimeTest, d.Par.Parallel, d.Par.Reason, d.Par.LRPD)
			}
		}
	}
	if k != len(res.Loops) {
		t.Errorf("%s: %d records for %d loops", path, len(res.Loops), k)
	}
}

// resident returns the entry tier t of s holds for src.
func resident(t *testing.T, s *Server, tier *tier, src string) *cacheEntry {
	t.Helper()
	opt := core.PolarisOptions()
	e, _, err := s.compiled(context.Background(), tier, core.KeyOf(src, opt), opt,
		func(context.Context, core.Options) (*cacheEntry, error) { return nil, errors.New("not resident") })
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLoopsNameTheirLoops holds every path a compile's loop records
// reach a reader by to loopsNameTheirLoops: a cold compile, a compile
// every unit of which the unit memo replays, the stored entry a hit
// decodes whole (DecodeEntry, as emit does), and the entry a peer fill
// left in the requester's hot tier. A hit's View (DecodeView, as compile
// and explain read it) has no program; its records must be the whole
// decode's.
func TestLoopsNameTheirLoops(t *testing.T) {
	ring, err := fabric.New(fabric.Config{Self: "a", Peers: map[string]string{"a": "http://a.invalid", "b": "http://b.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	progs := suite.All()
	progs = append(progs, suite.Program{Name: "mega10k", Source: fuzzgen.MegaCorpus()[0].Generate().Source})
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			src := sourceOwnedBy(t, ring, "a", p.Source)
			cold, err := core.Compile(parser.MustParse(src), core.PolarisOptions())
			if err != nil {
				t.Fatal(err)
			}
			loopsNameTheirLoops(t, "cold", cold)

			opt := core.PolarisOptions()
			opt.UnitMemo = core.NewUnitMemo(core.MemoLimits{})
			for range 2 {
				res, err := core.Compile(parser.MustParse(src), opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.UnitsReused > 0 {
					if res.UnitsRecompiled != 0 {
						t.Fatalf("%d units recompiled against a warm memo", res.UnitsRecompiled)
					}
					loopsNameTheirLoops(t, "unit-memo replay", res)
				}
			}

			decoded := func(path string, e *cacheEntry) {
				t.Helper()
				key := core.KeyOf(src, core.PolarisOptions()).String()
				res, _, err := fabric.DecodeEntry(e.entry, e.checksum, key, "")
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				loopsNameTheirLoops(t, path+", DecodeEntry", res)
				if !reflect.DeepEqual(res.Loops, cold.Loops) {
					t.Errorf("%s: the decoded records differ from the cold compile's", path)
				}
				v, err := fabric.DecodeView(e.entry, "")
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				defer v.Release()
				if !reflect.DeepEqual(v.Loops, res.Loops) {
					t.Errorf("%s: the View's records differ from the whole decode's", path)
				}
			}
			hit := New(Config{Workers: 2})
			compileAs(t, hit.Handler(), "", src, "warm")
			decoded("hit", resident(t, hit, hit.cache, src))

			pair := newFabricPair(t, 2*time.Second, nil)
			compileAs(t, pair.a.Handler(), "", src, "warm")
			if got := compileAs(t, pair.b.Handler(), "", src, "fill"); got.Outcome != "peer_hit" {
				t.Fatalf("the requester's compile was %s, want a peer fill", got.Outcome)
			}
			decoded("peer fill", resident(t, pair.b, pair.b.hot, src))
		})
	}
}
