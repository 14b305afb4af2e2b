package obsv

import (
	"fmt"
	"strings"
)

// ExplainDecision renders one final decision record as the single-line,
// human-readable explanation `polaris explain` prints:
//
//	MAIN/L40 DO J: DOALL — range test proved accesses disjoint; array privatization of WRK
//	MAIN/L60 DO I: LRPD — speculative run-time PD test on X
//	MAIN/L20 DO K: serial — blocked by assumed dependence on A
func ExplainDecision(d Decision) string {
	head := d.Loop
	if d.Index != "" {
		head += " DO " + d.Index
	}
	switch d.Verdict {
	case "doall":
		t := d.Technique
		if t == "" {
			t = d.Detail
		}
		return fmt.Sprintf("%s: DOALL — %s", head, t)
	case "lrpd":
		t := d.Technique
		if t == "" {
			t = d.Detail
		}
		return fmt.Sprintf("%s: LRPD — %s", head, t)
	default:
		b := d.Blocker
		if b == "" {
			b = d.Detail
		}
		return fmt.Sprintf("%s: serial — blocked by %s", head, b)
	}
}

// Explanations renders the final record of every loop under the
// label, indented by nesting depth, in program order.
func (o *Observer) Explanations(label string) []string {
	return ExplainAll(o.FinalDecisions(label))
}

// ExplainAll renders final records (see FinalDecisions) one line each,
// indented by nesting depth.
func ExplainAll(finals []Decision) []string {
	var out []string
	for _, d := range finals {
		out = append(out, strings.Repeat("  ", d.Depth)+ExplainDecision(d))
	}
	return out
}

// Explain renders the explanation for one loop (matched by exact ID,
// by ID suffix like "L30", or by index variable name) under the label.
// The empty string is returned when no loop matches.
func (o *Observer) Explain(label, loop string) string {
	return ExplainLoop(o.FinalDecisions(label), loop)
}

// ExplainLoop renders the first of the final records that loop names
// (see MatchLoop), or the empty string when none does.
func ExplainLoop(finals []Decision, loop string) string {
	for _, d := range finals {
		if MatchLoop(d, loop) {
			return ExplainDecision(d)
		}
	}
	return ""
}

// MatchLoop reports whether a query names the decision's loop: the full
// ID ("MAIN/L30"), the bare label ("L30"), or the index variable.
func MatchLoop(d Decision, query string) bool {
	if query == "" {
		return true
	}
	q := strings.ToUpper(query)
	if strings.EqualFold(d.Loop, query) || strings.EqualFold(d.Index, query) {
		return true
	}
	if i := strings.IndexByte(d.Loop, '/'); i >= 0 && strings.EqualFold(d.Loop[i+1:], q) {
		return true
	}
	return false
}
