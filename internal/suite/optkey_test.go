package suite

import (
	"reflect"
	"testing"

	"polaris/internal/core"
)

// optKeyInstrumentation lists the core.Options fields that do not
// affect the compiled program and are therefore deliberately excluded
// from the cache fingerprint. Everything else is a technique-selection
// field and MUST change optKey when toggled — otherwise two distinct
// configurations would alias one cache entry and the suite would
// silently serve the wrong compilation.
var optKeyInstrumentation = map[string]bool{
	"Stats":      true,
	"Trace":      true,
	"TraceLabel": true,
	"Observer":   true,
	// UnitWorkers only schedules the per-unit passes across a worker
	// pool; the parallel schedule is observationally identical to the
	// serial one (verdicts, decisions, and trace are byte-for-byte the
	// same — see core.forEachUnit), so it must not split the cache.
	"UnitWorkers": true,
	// UnitMemo changes where per-unit pass results come from, never
	// what they are: clean units replay records memoized under a hash
	// that itself fingerprints every technique bool
	// (core.incrFingerprint, guarded by
	// core.TestUnitFingerprintCoversOptions), so two technique
	// configurations can never alias a memo entry, and the incremental
	// differential test (core.TestIncrementalDifferential) proves the
	// compiled output byte-identical with and without a memo. It is
	// therefore observation-only for the whole-program cache, like
	// UnitWorkers.
	"UnitMemo": true,
	// TrustedInput skips the driver's defensive input re-check and
	// unit clones when the caller hands over ownership of a freshly
	// parsed program; the pass pipeline then runs unchanged on the same
	// IR, so the compiled output is byte-identical either way (the
	// incremental differential test compiles with it on one side and off
	// the other).
	"TrustedInput": true,
}

// TestOptKeyCoversOptions fails when core.Options gains a
// technique-selection field that optKey does not fingerprint. Add new
// technique flags to optKey (and bump the cache key), or add genuine
// instrumentation fields to the allowlist above.
func TestOptKeyCoversOptions(t *testing.T) {
	base := core.PolarisOptions()
	baseKey := optKey(base)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if optKeyInstrumentation[f.Name] {
			continue
		}
		if f.Type.Kind() != reflect.Bool {
			t.Errorf("core.Options.%s: non-bool technique field (%s); teach optKey to fingerprint it and extend this test",
				f.Name, f.Type)
			continue
		}
		mut := base
		fv := reflect.ValueOf(&mut).Elem().Field(i)
		fv.SetBool(!fv.Bool())
		if optKey(mut) == baseKey {
			t.Errorf("core.Options.%s: toggling the field does not change optKey — cache entries would alias", f.Name)
		}
	}
}
