package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"

	"strings"
	"testing"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/obsv"
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
			got, gotDec, err := DecodeEntry(entry, sum, key)
			if err != nil {
				t.Fatalf("DecodeEntry: %v", err)
			}

			// Loop verdicts: identical modulo the Loop pointer (which
			// must be live and carry equal ParInfo).
			if len(got.Loops) != len(res.Loops) {
				t.Fatalf("loops: got %d want %d", len(got.Loops), len(res.Loops))
			}
			for i := range res.Loops {
				want, have := res.Loops[i], got.Loops[i]
				if have.Loop == nil {
					t.Fatalf("loop %s: nil *ir.DoStmt after decode", want.ID)
				}
				if w, h := canon(t, want.Loop.Par), canon(t, have.Loop.Par); w != h {
					t.Errorf("loop %s: ParInfo differs:\n want %s\n have %s", want.ID, w, h)
				}
				want.Loop, have.Loop = nil, nil
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

// TestWireRejections proves every tamper class is rejected before an
// entry can poison a cache: flipped bytes, a stale route key, and a
// foreign schema version.
func TestWireRejections(t *testing.T) {
	p := suite.Track()
	res, decisions, opt := compileCaptured(t, p.Source, p.Name)
	key := core.RouteKey(p.Source, opt)
	entry, sum, err := EncodeEntry(key, res, decisions)
	if err != nil {
		t.Fatalf("EncodeEntry: %v", err)
	}

	t.Run("corrupt-bytes", func(t *testing.T) {
		bad := append([]byte(nil), entry...)
		bad[len(bad)/2] ^= 0x20
		if _, _, err := DecodeEntry(bad, sum, key); err == nil {
			t.Fatal("corrupted entry accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, _, err := DecodeEntry(entry[:len(entry)/2], sum, key); err == nil {
			t.Fatal("truncated entry accepted")
		}
	})
	t.Run("stale-key", func(t *testing.T) {
		// Checksum is consistent with the bytes — only the key is wrong,
		// the lying-owner case.
		if _, _, err := DecodeEntry(entry, sum, key+"x"); err == nil {
			t.Fatal("stale entry accepted")
		} else if !strings.Contains(err.Error(), "stale") {
			t.Fatalf("want stale-key rejection, got: %v", err)
		}
	})
	t.Run("schema-skew", func(t *testing.T) {
		var e Entry
		if err := json.Unmarshal(entry, &e); err != nil {
			t.Fatal(err)
		}
		e.Schema = EntrySchema + 1
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeEntry(raw, sumHex(raw), key); err == nil {
			t.Fatal("future-schema entry accepted")
		}
	})
	t.Run("rendered-tamper", func(t *testing.T) {
		var e Entry
		if err := json.Unmarshal(entry, &e); err != nil {
			t.Fatal(err)
		}
		e.Rendered = strings.Replace(e.Rendered, "DO", "do", 1)
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeEntry(raw, sumHex(raw), key); err == nil {
			t.Fatal("tampered rendering accepted")
		}
	})
}

// TestChecksumsPinned pins the two checksums of one known entry — TRFD
// compiled, its timing report dropped so the bytes repeat — to the
// values the commit before sumHex stopped copying its input produced:
// peers of different builds verify each other's entries, so the hash of
// given bytes may never move. It then holds both spellings to
// crypto/sha256 on lengths either side of the string path's buffer.
func TestChecksumsPinned(t *testing.T) {
	p, _ := suite.ByName("trfd")
	res, decisions, _ := compileCaptured(t, p.Source, "trfd")
	res.Report = nil
	entry, checksum, err := EncodeEntry("pinned-key", res, decisions)
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(entry, &e); err != nil {
		t.Fatal(err)
	}
	const wantEntry = "48e6a6af27c882ab8d433bb6928c9c060f73f30955d84501666343bec96e4c1a"
	const wantRendered = "7aad8adba2584d0beafb760ad85ea004a7d5f816ee6bb06d9ecc8654616bc879"
	if checksum != wantEntry || e.RenderedSHA256 != wantRendered {
		t.Errorf("entry checksum %s, rendering %s; pinned %s, %s", checksum, e.RenderedSHA256, wantEntry, wantRendered)
	}
	if _, _, err := DecodeEntry(entry, wantEntry, "pinned-key"); err != nil {
		t.Errorf("the pinned checksum does not open the entry: %v", err)
	}
	for _, n := range []int{0, 1, 63, 64, 4095, 4096, 4097, 3 * 4096, 100_001} {
		b := []byte(strings.Repeat("polaris\x00", n/8+1)[:n])
		sum := sha256.Sum256(b)
		want := hex.EncodeToString(sum[:])
		if got := sumHex(b); got != want {
			t.Errorf("sumHex of %d bytes = %s, want %s", n, got, want)
		}
		if got := sumHexString(string(b)); got != want {
			t.Errorf("sumHexString of %d bytes = %s, want %s", n, got, want)
		}
	}
}
