package suite

import (
	"reflect"
	"testing"

	"polaris/internal/core"
)

// optKeyExcluded lists the Options fields the compile key ignores
// because they cannot change the compiled program: a Figure 6 run that
// brings an observer or a trace label must share the compile cache
// entry a plain run of the same program filled.
var optKeyExcluded = map[string]bool{
	"Stats":        true,
	"TraceLabel":   true,
	"Observer":     true,
	"UnitMemo":     true,
	"TrustedInput": true,
}

// TestOptKeyCoversOptions fails when the compile key of a suite program
// would let two technique configurations alias one cache entry — every
// ablation column of Figure 3 must compile separately — or when an
// instrumentation field splits entries that should be shared. Every
// field not excluded above must be a bool whose flip changes the key;
// every excluded field set to a non-zero value must leave it alone.
func TestOptKeyCoversOptions(t *testing.T) {
	progs := All()
	base := core.PolarisOptions()
	baseKey := core.KeyOf(progs[0].Source, base)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		mut := base
		fv := reflect.ValueOf(&mut).Elem().Field(i)
		if optKeyExcluded[f.Name] {
			switch f.Type.Kind() {
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			case reflect.Int:
				fv.SetInt(fv.Int() + 7)
			case reflect.String:
				fv.SetString(fv.String() + "x")
			case reflect.Ptr:
				fv.Set(reflect.New(f.Type.Elem()))
			default:
				continue
			}
			if core.KeyOf(progs[0].Source, mut) != baseKey {
				t.Errorf("core.Options.%s: instrumentation field changes the compile key — observed runs would miss the shared entry", f.Name)
			}
			continue
		}
		if f.Type.Kind() != reflect.Bool {
			t.Errorf("core.Options.%s: non-bool technique field (%s); teach the options fingerprint to cover it and extend this test",
				f.Name, f.Type)
			continue
		}
		fv.SetBool(!fv.Bool())
		if core.KeyOf(progs[0].Source, mut) == baseKey {
			t.Errorf("core.Options.%s: toggling the field does not change the compile key — two ablation columns would share one compilation", f.Name)
		}
	}
	for _, a := range Ablations() {
		mut := base
		a.Mod(&mut)
		if core.KeyOf(progs[0].Source, mut) == baseKey {
			t.Errorf("ablation %q compiles under the full pipeline's key", a.Name)
		}
	}
	if core.KeyOf(progs[1].Source, base) == baseKey {
		t.Error("two programs share one compile key")
	}
}
