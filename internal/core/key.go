package core

import (
	"encoding/hex"
	"fmt"

	"polaris/internal/digest"
	"polaris/internal/obsv"
)

// incrFingerprint is the one fingerprint of Options: the
// technique-selection fields, which salt every unit-memo key and form
// the options half of every compile Key. Instrumentation, memo and
// ownership fields (Stats, TraceLabel, Observer, UnitMemo,
// TrustedInput) are deliberately excluded: they do not change the
// compiled program. TestUnitFingerprintCoversOptions
// enforces that every future technique field is added here; changing
// the output moves every route key and every unit key (bump
// unitMemoVersion).
func incrFingerprint(o Options) string {
	return fmt.Sprintf("%t%t%t%t%t%t%t%t%t%t%t%t",
		o.Inline, o.Induction, o.SimpleInduction, o.Reductions,
		o.HistogramReduction, o.ArrayPrivatization, o.RangeTest,
		o.Permutation, o.LRPD, o.StrengthReduction, o.Normalize,
		o.InterprocConstants)
}

// Key identifies one compilation: the content hash of the Fortran
// source plus the options fingerprint. A caller that needs the identity
// for more than one lookup (the compile service routes on it and
// reports the source hash) computes it once with KeyOf and passes it
// down; hashing is the only cost and it is paid per source, not per
// use.
type Key struct {
	src  [32]byte
	opts string
}

// KeyOf computes the cache identity of compiling src under opt.
func KeyOf(src string, opt Options) Key {
	return Key{src: digest.Sum256(src), opts: incrFingerprint(opt)}
}

// String renders the key as the consistent-hash routing key of the
// distributed compile fabric: every node hashes an incoming request to
// the same owner because every node derives the key from the same
// bytes.
func (k Key) String() string { return k.SourceHash() + "|" + k.opts }

// SourceHash is the SHA-256 of the source alone, in hexadecimal.
func (k Key) SourceHash() string { return hex.EncodeToString(k.src[:]) }

// RouteKey is KeyOf(src, opt).String().
func RouteKey(src string, opt Options) string { return KeyOf(src, opt).String() }

// decisionsSize estimates the decision records alone: a fixed part per
// record plus its strings. The unit memo books its records with it.
func decisionsSize(ds []obsv.Decision) int64 {
	var s int64
	for _, d := range ds {
		s += 128 + int64(len(d.Detail)+len(d.Technique)+len(d.Blocker)+len(d.Loop))
		for _, ev := range d.Evidence {
			s += int64(len(ev))
		}
	}
	return s
}
