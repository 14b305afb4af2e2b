package oracle

import "polaris/internal/ir"

// FlipVerdict flips the parallel verdict of the first loop with the
// given index variable, returning false if no such loop exists. Tests
// use it to inject an unsound DOALL and assert the oracle catches it.
func FlipVerdict(prog *ir.Program, index string) bool {
	for _, u := range prog.Units {
		for _, d := range ir.Loops(u.Body) {
			if d.Index == index {
				if d.Par == nil {
					d.Par = &ir.ParInfo{}
				}
				par := d.Par
				par.Parallel = !par.Parallel
				if par.Parallel {
					par.Reason = "verdict flipped by test"
					par.LRPD = nil
				}
				return true
			}
		}
	}
	return false
}
