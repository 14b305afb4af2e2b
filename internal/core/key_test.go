package core

import (
	"reflect"
	"strings"
	"testing"
)

// fingerprintExcluded lists the Options fields the fingerprint leaves
// out, each because it cannot change the compiled program. Everything
// else is a technique-selection field and MUST change incrFingerprint
// when toggled — otherwise two configurations would alias one compile
// cache entry, route to one owner, or replay one unit-memo entry.
var fingerprintExcluded = map[string]bool{
	"Stats":      true,
	"TraceLabel": true,
	"Observer":   true,
	// UnitMemo changes where per-unit pass results come from, never what
	// they are: clean units replay records memoized under a key this very
	// fingerprint salts, and TestIncrementalDifferential proves the
	// output byte-identical with and without a memo.
	"UnitMemo": true,
	// TrustedInput takes the units in place instead of cloning them when
	// the caller hands over a freshly parsed program; the
	// pipeline then runs unchanged on the same IR (the incremental
	// differential test compiles with it on one side and off the other).
	"TrustedInput": true,
}

// TestUnitFingerprintCoversOptions fails when Options gains a
// technique-selection field the fingerprint does not cover: every field
// not excluded above must be a bool, and flipping it must change the
// fingerprint. Add a new technique bool to incrFingerprint (and bump
// unitMemoVersion), or add a genuine instrumentation field to the list
// above with its justification. Every excluded field set non-zero must
// leave KeyOf alone: the service cache relies on it, since requests
// carry their own TraceLabel and must still share entries. The
// fingerprint's bytes are pinned too: they are half of every route key
// the fabric agrees on.
func TestUnitFingerprintCoversOptions(t *testing.T) {
	const src = "      PROGRAM P\n      END\n"
	base := PolarisOptions()
	baseFP := incrFingerprint(base)
	baseKey := KeyOf(src, base)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		mut := base
		fv := reflect.ValueOf(&mut).Elem().Field(i)
		if fingerprintExcluded[f.Name] {
			switch f.Type.Kind() {
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			case reflect.String:
				fv.SetString(fv.String() + "x")
			case reflect.Ptr:
				fv.Set(reflect.New(f.Type.Elem()))
			default:
				t.Errorf("core.Options.%s: excluded field of kind %s; teach this test to set it non-zero", f.Name, f.Type.Kind())
				continue
			}
			if KeyOf(src, mut) != baseKey {
				t.Errorf("core.Options.%s: excluded field changes KeyOf — requests differing only in it would not share a cache entry", f.Name)
			}
			continue
		}
		if f.Type.Kind() != reflect.Bool {
			t.Errorf("core.Options.%s: non-bool technique field (%s); teach incrFingerprint to cover it and extend this test",
				f.Name, f.Type)
			continue
		}
		fv.SetBool(!fv.Bool())
		if incrFingerprint(mut) == baseFP {
			t.Errorf("core.Options.%s: toggling the field does not change the fingerprint — compile keys and unit keys would alias", f.Name)
		}
	}
	if KeyOf(src+"C\n", base) == baseKey {
		t.Error("two sources share one compile key")
	}
	if want := "truetruefalse" + strings.Repeat("true", 9); baseFP != want {
		t.Errorf("fingerprint of PolarisOptions = %q, pinned %q", baseFP, want)
	}
	if got, want := incrFingerprint(Options{}), strings.Repeat("false", 12); got != want {
		t.Errorf("fingerprint of Options{} = %q, pinned %q", got, want)
	}
}
