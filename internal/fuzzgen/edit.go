package fuzzgen

import (
	"strconv"
	"strings"
)

// EditOneUnit returns a copy of src with one statement appended to the
// body of a single phase subroutine (the P0001, P0002, ... units of a
// megaprogram), selected by n modulo the phase count, plus the name of
// the edited unit. The inserted statement is a straight-line update of
// the T2 COMMON scalar every phase declares via the standard /SCL/
// block, parameterized by tag so distinct tags yield distinct sources:
// it changes exactly that unit's text (and hash) without perturbing
// any loop analysis or any other unit's interprocedural inputs, which
// makes it the canonical "edit one unit" probe for incremental
// compilation. Phases are never inlined and take no new constant
// actuals from the edit, so a recompile against a warm unit memo must
// find exactly one dirty unit.
//
// When src contains no phase subroutines, or the chosen one has no END,
// it is returned unchanged with an empty unit name.
func EditOneUnit(src string, n, tag int) (edited string, unit string) {
	// One scan counts the phases, a second finds the chosen one and the
	// END that closes it, and the edited source is written once.
	phases := 0
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if _, ok := phaseName(line); ok {
			phases++
		}
	}
	if phases == 0 {
		return src, ""
	}
	k := ((n % phases) + phases) % phases
	for off, rest, more := 0, src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if name, ok := phaseName(line); ok {
			if k--; k == -1 {
				unit = name
			}
		} else if unit != "" && strings.TrimSpace(line) == "END" {
			return insertLine(src, off, tag), unit
		}
		off += len(line) + 1
	}
	return src, ""
}

// phaseName returns the name of the phase subroutine a source line
// opens, if it opens one: a slice of the line.
func phaseName(line string) (string, bool) {
	name, ok := strings.CutPrefix(strings.TrimSpace(line), "SUBROUTINE ")
	if !ok || !strings.HasPrefix(name, "P") {
		return "", false
	}
	if p := strings.IndexByte(name, '('); p > 0 {
		name = name[:p]
	}
	return name, true
}

// insertLine returns src with the edit's statement, a line of its own,
// inserted at byte offset off, the start of a line.
func insertLine(src string, off, tag int) string {
	if tag < 0 {
		tag = -tag // keep the literal well-formed under the parser subset
	}
	var digits [20]byte
	num := strconv.AppendInt(digits[:0], int64(tag), 10)
	const head, tail = "      T2 = T2 + ", ".0\n"
	var b strings.Builder
	b.Grow(len(src) + len(head) + len(num) + len(tail))
	b.WriteString(src[:off])
	b.WriteString(head)
	b.Write(num)
	b.WriteString(tail)
	b.WriteString(src[off:])
	return b.String()
}
