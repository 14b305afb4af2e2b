package deps

import (
	"slices"

	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// Hooks for nestconv_test.go, which needs internal/suite's programs and
// so cannot live in package deps: suite imports deps through core.

func (n *Nest) Accesses() []Access { return n.accesses }

// Sub is the stored conversion of acc's d-th subscript.
func (t *Tester) Sub(n *Nest, acc Access, d int) (conv, pow symbolic.Conv, analyzable bool) {
	sc := t.sub(n, acc, d)
	return sc.conv, sc.pow, sc.analyzable
}

// CommonNest is the loop chain a pair is tested over in the view
// (target, ranged); its indices are the list linear forms are extracted
// for.
func (t *Tester) CommonNest(target *ir.DoStmt, ranged map[string]bool, a, b Access) []*ir.DoStmt {
	return t.commonNest(target, ranged, a, b)
}

func (n *Nest) Inner() map[string]bool { return n.inner }

func PerfectChain(root *ir.DoStmt) []*ir.DoStmt { return perfectChain(root) }

// Linear is the linear form of acc's d-th subscript over indices as the
// pair tests get it, through the access's slot, and whether the slot
// already held the form for that list.
func (t *Tester) Linear(n *Nest, acc Access, d int, indices []string) (lf LinearForm, ok, reused bool) {
	sc := t.sub(n, acc, d)
	reused = slices.Equal(sc.linFor, indices)
	lf, ok = sc.linear(indices)
	return lf, ok, reused
}
