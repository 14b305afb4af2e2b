package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/ir"
	"polaris/internal/obsv"
	"polaris/internal/passes"
	"polaris/internal/suite"
)

func compileCaptured(t *testing.T, src, label string) (*core.Result, []obsv.Decision, core.Options) {
	t.Helper()
	prog := suite.Program{Source: src}.Parse()
	opt := core.PolarisOptions()
	cap := obsv.NewCapture(nil)
	opt.Observer = cap
	opt.TraceLabel = label
	res, err := core.Compile(prog, opt)
	if err != nil {
		t.Fatalf("compile %s: %v", label, err)
	}
	return res, cap.Decisions(), opt
}

// stripLabels normalizes decision provenance the way the wire does:
// request labels are a per-node artifact, everything else must survive
// the trip bit for bit.
func stripLabels(ds []obsv.Decision) []obsv.Decision {
	out := make([]obsv.Decision, len(ds))
	for i, d := range ds {
		d.Label = ""
		out[i] = d
	}
	return out
}

// canon renders a value in a canonical JSON-derived form where a nil
// slice/map and an empty one are the same thing (JSON cannot tell them
// apart, and neither can any client), so comparisons test meaning, not
// Go's nil/empty distinction.
func canon(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("canon marshal: %v", err)
	}
	var x any
	if err := json.Unmarshal(b, &x); err != nil {
		t.Fatalf("canon unmarshal: %v", err)
	}
	x = scrub(x)
	if isEmptyJSON(x) {
		return "null"
	}
	out, err := json.Marshal(x)
	if err != nil {
		t.Fatalf("canon remarshal: %v", err)
	}
	return string(out)
}

func scrub(x any) any {
	switch v := x.(type) {
	case map[string]any:
		out := map[string]any{}
		for k, e := range v {
			e = scrub(e)
			if isEmptyJSON(e) {
				continue
			}
			out[k] = e
		}
		return out
	case []any:
		out := make([]any, len(v))
		for i, e := range v {
			out[i] = scrub(e)
		}
		return out
	}
	return x
}

func isEmptyJSON(v any) bool {
	switch t := v.(type) {
	case nil:
		return true
	case map[string]any:
		return len(t) == 0
	case []any:
		return len(t) == 0
	}
	return false
}

// wireFields names, for every struct the entry codec reads or writes,
// each field it carries and each it leaves off on purpose, with why.
// The codec names fields by hand, so a field added to one of these
// structs would otherwise cross the wire as its zero value without a
// word; TestWireCoversFields fails until it is listed here, and it is
// listed as carried only once EncodeEntry and DecodeEntry carry it.
var wireFields = map[reflect.Type]struct{ carried, leftOff []string }{
	reflect.TypeOf(core.Result{}): {
		carried: []string{"Loops", "InlinedCalls", "InlineSkipped", "InductionVars", "StrengthReduced", "NormalizedLoops", "InterprocConstants", "Report"},
		// Program and Unit are the re-parsed rendering; the unit-memo
		// counts describe the owner's compile, not the result.
		leftOff: []string{"Program", "Unit", "UnitsReused", "UnitsRecompiled"},
	},
	reflect.TypeOf(core.LoopReport{}): {
		carried: []string{"ID", "Unit", "Index", "Depth", "Parallel", "RunTimeTest", "Reason"},
	},
	reflect.TypeOf(ir.ParInfo{}): {
		carried: []string{"Parallel", "Reason", "Private", "PrivateArrays", "LastValue", "Reductions", "LRPD"},
	},
	reflect.TypeOf(ir.Reduction{}): {
		carried: []string{"Target", "Op", "Histogram"},
	},
	reflect.TypeOf(obsv.Decision{}): {
		carried: []string{"Unit", "Loop", "Index", "Depth", "Pass", "Verdict", "Technique", "Blocker", "Detail", "Evidence", "Final"},
		leftOff: []string{"Label"}, // the requester's, written as it decodes
	},
	reflect.TypeOf(passes.PipelineReport{}): {
		carried: []string{"Events", "TotalNS"},
		leftOff: []string{"Label"}, // the owner's request label
	},
	reflect.TypeOf(obsv.Span{}): {
		carried: []string{"Seq", "Pass", "DurationNS", "Mutations", "Err"},
		leftOff: []string{"Label"}, // the owner's request label
	},
}

// TestWireCoversFields holds each struct the entry codec handles to
// exactly the fields wireFields names.
func TestWireCoversFields(t *testing.T) {
	for rt, want := range wireFields {
		listed := map[string]bool{}
		for _, name := range append(slices.Clone(want.carried), want.leftOff...) {
			if listed[name] {
				t.Errorf("%s.%s is listed twice", rt, name)
			}
			listed[name] = true
			if _, ok := rt.FieldByName(name); !ok {
				t.Errorf("%s has no field %s any more: take it out of wireFields and the codec", rt, name)
			}
		}
		for i := 0; i < rt.NumField(); i++ {
			if name := rt.Field(i).Name; !listed[name] {
				t.Errorf("%s.%s is new: carry it in EncodeEntry and DecodeEntry, or list it as left off with the reason", rt, name)
			}
		}
	}
}

// TestWireRoundTripSuite is the fabric's core acceptance gate: for
// every program in the suite corpus, an entry encoded by an owner and
// decoded by a requester yields byte-identical verdicts, decision
// provenance, and emitted code versus the single-node compile it came
// from.
func TestWireRoundTripSuite(t *testing.T) {
	for _, p := range suite.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res, decisions, opt := compileCaptured(t, p.Source, p.Name)
			key := core.RouteKey(p.Source, opt)

			entry, sum, err := EncodeEntry(key, res, decisions)
			if err != nil {
				t.Fatalf("EncodeEntry: %v", err)
			}
			got, gotDec, err := DecodeEntry(entry, sum, key, "")
			if err != nil {
				t.Fatalf("DecodeEntry: %v", err)
			}

			// Loop verdicts: identical, and each names a loop of the
			// reconstruction that carries equal ParInfo.
			if len(got.Loops) != len(res.Loops) {
				t.Fatalf("loops: got %d want %d", len(got.Loops), len(res.Loops))
			}
			for i := range res.Loops {
				want, have := res.Loops[i], got.Loops[i]
				wd, hd := loopNamed(res.Program, want.Unit, want.ID), loopNamed(got.Program, have.Unit, have.ID)
				if hd == nil {
					t.Fatalf("loop %s: absent from the reconstruction", want.ID)
				}
				if w, h := canon(t, wd.Par), canon(t, hd.Par); w != h {
					t.Errorf("loop %s: ParInfo differs:\n want %s\n have %s", want.ID, w, h)
				}
				if w, h := canon(t, want), canon(t, have); w != h {
					t.Errorf("loop %d verdict differs:\n want %s\n have %s", i, w, h)
				}
			}

			// Decision provenance: byte-identical modulo labels.
			if w, h := canon(t, stripLabels(decisions)), canon(t, gotDec); w != h {
				t.Errorf("decisions differ after round trip (%d vs %d)", len(decisions), len(gotDec))
			}

			// Result scalars.
			if got.InlinedCalls != res.InlinedCalls ||
				got.StrengthReduced != res.StrengthReduced ||
				got.NormalizedLoops != res.NormalizedLoops ||
				canon(t, got.InductionVars) != canon(t, res.InductionVars) ||
				canon(t, got.InterprocConstants) != canon(t, res.InterprocConstants) {
				t.Errorf("result scalars differ after round trip")
			}

			// Emitted code: both back ends must produce byte-identical
			// output from the reconstruction (the entry must be usable
			// by later /v1/emit hits, not just reportable).
			if wf, gf := codegen.EmitFortran(res), codegen.EmitFortran(got); wf != gf {
				t.Errorf("EmitFortran differs after round trip")
			}
			wantGo, wantErr := codegen.EmitGo(res, codegen.GoOptions{Label: p.Name})
			gotGo, gotErr := codegen.EmitGo(got, codegen.GoOptions{Label: p.Name})
			var wu, gu *codegen.UnsupportedError
			wRefused, gRefused := errors.As(wantErr, &wu), errors.As(gotErr, &gu)
			if wRefused != gRefused {
				t.Fatalf("EmitGo refusal disagrees: original=%v decoded=%v", wantErr, gotErr)
			}
			if !wRefused {
				if wantErr != nil || gotErr != nil {
					t.Fatalf("EmitGo errors: original=%v decoded=%v", wantErr, gotErr)
				}
				if wantGo != gotGo {
					t.Errorf("EmitGo output differs after round trip")
				}
			}
		})
	}
}

// loopNamed returns the loop of prog that (unit, id) names, or nil.
func loopNamed(prog *ir.Program, unit, id string) *ir.DoStmt {
	if u := prog.Unit(unit); u != nil {
		for _, d := range ir.Loops(u.Body) {
			if d.ID == id {
				return d
			}
		}
	}
	return nil
}

// renderingAt returns where an entry's rendering starts — past the
// header, the route key, the string table and the body — or false when
// those do not decode.
func renderingAt(entry string) (int, bool) {
	r := &reader{s: entry}
	r.header()
	r.readTable(&View{})
	return r.end, r.err == nil
}

// TestWireRejections proves every tamper class is rejected before an
// entry can poison a cache: flipped bytes, a stale route key, a foreign
// schema version, a rendering that does not round-trip and a count the
// bytes cannot hold. The last three are edits of the entry's bytes
// with the checksum taken again, the lying owner's move. DecodeEntry and
// VerifyEntry, which a peer fill proves its bytes with, must each reject
// every one with the same error.
func TestWireRejections(t *testing.T) {
	p := suite.Track()
	res, decisions, opt := compileCaptured(t, p.Source, p.Name)
	key := core.RouteKey(p.Source, opt)
	entry, sum, err := EncodeEntry(key, res, decisions)
	if err != nil {
		t.Fatalf("EncodeEntry: %v", err)
	}
	if _, _, err := DecodeEntry(entry, sum, key, ""); err != nil {
		t.Fatalf("the untampered entry is rejected: %v", err)
	}
	if err := VerifyEntry(entry, sum, key); err != nil {
		t.Fatalf("the untampered entry fails verification: %v", err)
	}
	// rejected fails t unless both readers reject bad with one error,
	// and that error names want.
	rejected := func(t *testing.T, bad, sum, key, want string) {
		t.Helper()
		_, _, err := DecodeEntry(bad, sum, key, "")
		verr := VerifyEntry(bad, sum, key)
		switch {
		case err == nil || verr == nil:
			t.Fatalf("accepted: DecodeEntry %v, VerifyEntry %v", err, verr)
		case err.Error() != verr.Error():
			t.Fatalf("DecodeEntry rejects with %q, VerifyEntry with %q", err, verr)
		case !strings.Contains(err.Error(), want):
			t.Fatalf("want a rejection naming %q, got: %v", want, err)
		}
	}
	// tampered edits the entry's bytes.
	tampered := func(edit func(b []byte) []byte) string { return string(edit([]byte(entry))) }

	t.Run("corrupt-bytes", func(t *testing.T) {
		bad := tampered(func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b })
		rejected(t, bad, sum, key, "checksum")
	})
	t.Run("truncated", func(t *testing.T) {
		rejected(t, entry[:len(entry)/2], sum, key, "checksum")
	})
	t.Run("stale-key", func(t *testing.T) {
		// Checksum is consistent with the bytes — only the key is wrong,
		// the lying-owner case.
		rejected(t, entry, sum, key+"x", "stale")
	})
	t.Run("schema-skew", func(t *testing.T) {
		bad := tampered(func(b []byte) []byte { b[len(entryMagic)] = EntrySchema + 1; return b }) // the schema's one-byte uvarint
		rejected(t, bad, sumHex(bad), key, "schema")
	})
	t.Run("rendered-tamper", func(t *testing.T) {
		at, _ := renderingAt(entry)
		bad := entry[:at] + strings.Replace(entry[at:], "DO", "do", 1)
		rejected(t, bad, sumHex(bad), key, "render-roundtrip")
	})
	t.Run("count-lie", func(t *testing.T) {
		// The string table's count, right after the route key, says a
		// billion strings: more than the bytes left could hold.
		at := len(entryMagic) + uvarintLen(EntrySchema) + stringLen(key)
		_, n := binary.Uvarint([]byte(entry[at:]))
		bad := string(binary.AppendUvarint([]byte(entry[:at]), 1<<30)) + entry[at+n:]
		rejected(t, bad, sumHex(bad), key, "count of 1073741824")
	})
}

// TestChecksumsPinned pins the two checksums of one known entry — TRFD
// compiled, its timing report dropped so the bytes repeat. The entry's
// is pinned under schema 2: peers of different builds verify each
// other's entries, so the hash of given bytes may never move. The
// rendering's is the value schema 1 shipped, computed here from the
// rendering the entry carries: the encoding around the program changed,
// the program's bytes may not. It then holds the hash to crypto/sha256
// on lengths either side of the digest's buffer.
func TestChecksumsPinned(t *testing.T) {
	p, _ := suite.ByName("trfd")
	res, decisions, _ := compileCaptured(t, p.Source, "trfd")
	res.Report = nil
	entry, checksum, err := EncodeEntry("pinned-key", res, decisions)
	if err != nil {
		t.Fatal(err)
	}
	at, _ := renderingAt(entry)
	rendered := sumHex(entry[at:])
	const wantEntry = "4fc0bdf7f606038708f0bbef99fd52eec0dde2abd2c079507edb44b4ba1250b6"
	const wantRendered = "7aad8adba2584d0beafb760ad85ea004a7d5f816ee6bb06d9ecc8654616bc879"
	if checksum != wantEntry || rendered != wantRendered {
		t.Errorf("entry checksum %s, rendering %s; pinned %s, %s", checksum, rendered, wantEntry, wantRendered)
	}
	if _, _, err := DecodeEntry(entry, wantEntry, "pinned-key", ""); err != nil {
		t.Errorf("the pinned checksum does not open the entry: %v", err)
	}
	for _, n := range []int{0, 1, 63, 64, 4095, 4096, 4097, 3 * 4096, 100_001} {
		b := []byte(strings.Repeat("polaris\x00", n/8+1)[:n])
		sum := sha256.Sum256(b)
		want := hex.EncodeToString(sum[:])
		if got := sumHex(string(b)); got != want {
			t.Errorf("sumHex of %d bytes = %s, want %s", n, got, want)
		}
	}
}
