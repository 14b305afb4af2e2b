package ir

import (
	"fmt"
	"slices"
	"strings"
)

// Fortran renders the program as Fortran source (free-form layout with
// six-column-style indentation). The output re-parses to an equivalent
// program; golden tests in the parser package check the round trip.
func (p *Program) Fortran() string {
	var b strings.Builder
	p.WriteFortran(&b)
	return b.String()
}

// WriteFortran appends the rendering Fortran returns to b, for a caller
// that has sized the builder or puts its own text around the program.
func (p *Program) WriteFortran(b *strings.Builder) {
	for i, u := range p.Units {
		if i > 0 {
			b.WriteString("\n")
		}
		u.write(b)
	}
}

// Fortran renders a single unit as Fortran source, into one buffer
// sized from the source the unit was parsed from, which the rendering
// runs up to a half over (codegen.EmitFortran sizes its buffer the same
// way); a builder left to double allocated about twice the text. Where
// there is no source, or the estimate falls short, the buffer grows.
func (u *ProgramUnit) Fortran() string {
	var b strings.Builder
	b.Grow(u.SourceLen() + u.SourceLen()/2)
	u.write(&b)
	return b.String()
}

func (u *ProgramUnit) write(b *strings.Builder) {
	switch u.Kind {
	case UnitProgram:
		fmt.Fprintf(b, "      PROGRAM %s\n", u.Name)
	case UnitSubroutine:
		fmt.Fprintf(b, "      SUBROUTINE %s(%s)\n", u.Name, strings.Join(u.Formals, ","))
	case UnitFunction:
		fmt.Fprintf(b, "      %s FUNCTION %s(%s)\n", u.ReturnType, u.Name, strings.Join(u.Formals, ","))
	}
	u.writeDecls(b)
	writeBlock(b, u.Body, 1)
	b.WriteString("      END\n")
}

func (u *ProgramUnit) writeDecls(b *strings.Builder) {
	declare := func(s *Symbol) {
		b.WriteString("      ")
		b.WriteString(s.Type.String())
		b.WriteByte(' ')
		b.WriteString(s.Name)
	}
	// PARAMETER constants first (they may appear in dimension bounds),
	// in declaration order; then typed declarations; then COMMONs.
	all := u.Symbols.All()
	for _, s := range all {
		if s.Param == nil {
			continue
		}
		declare(s)
		b.WriteString("\n      PARAMETER (")
		b.WriteString(s.Name)
		b.WriteByte('=')
		appendExpr(b, s.Param)
		b.WriteString(")\n")
	}
	for _, s := range all {
		if s.Param != nil {
			continue
		}
		declare(s)
		for i, d := range s.Dims {
			if i == 0 {
				b.WriteByte('(')
			} else {
				b.WriteByte(',')
			}
			if d.Lo != nil && !Equal(d.Lo, Int(1)) {
				appendExpr(b, d.Lo)
				b.WriteByte(':')
			}
			if d.Hi != nil {
				appendExpr(b, d.Hi)
			} else {
				b.WriteByte('*')
			}
		}
		if s.IsArray() {
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	// COMMON blocks in order of first member, preserving member order.
	var written []string
	for i, s := range all {
		if s.Common == "" || slices.Contains(written, s.Common) {
			continue
		}
		written = append(written, s.Common)
		b.WriteString("      COMMON /")
		b.WriteString(s.Common)
		b.WriteByte('/')
		sep := byte(' ')
		for _, m := range all[i:] {
			if m.Common == s.Common {
				b.WriteByte(sep)
				b.WriteString(m.Name)
				sep = ','
			}
		}
		b.WriteByte('\n')
	}
}

func writeBlock(b *strings.Builder, blk *Block, depth int) {
	if blk == nil {
		return
	}
	for _, s := range blk.Stmts {
		writeStmt(b, s, depth)
	}
}

func indent(b *strings.Builder, depth int) {
	b.WriteString("      ")
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func writeStmt(b *strings.Builder, s Stmt, depth int) {
	switch x := s.(type) {
	case *AssignStmt:
		indent(b, depth)
		appendExpr(b, x.LHS)
		b.WriteString(" = ")
		appendExpr(b, x.RHS)
		b.WriteByte('\n')
	case *DoStmt:
		writeParDirective(b, x, depth)
		indent(b, depth)
		b.WriteString("DO ")
		b.WriteString(x.Index)
		b.WriteString(" = ")
		appendExpr(b, x.Init)
		b.WriteString(", ")
		appendExpr(b, x.Limit)
		if x.Step != nil {
			b.WriteString(", ")
			appendExpr(b, x.Step)
		}
		b.WriteByte('\n')
		writeBlock(b, x.Body, depth+1)
		indent(b, depth)
		b.WriteString("END DO\n")
	case *IfStmt:
		indent(b, depth)
		b.WriteString("IF (")
		appendExpr(b, x.Cond)
		b.WriteString(") THEN\n")
		writeBlock(b, x.Then, depth+1)
		if x.Else != nil {
			indent(b, depth)
			b.WriteString("ELSE\n")
			writeBlock(b, x.Else, depth+1)
		}
		indent(b, depth)
		b.WriteString("END IF\n")
	case *CallStmt:
		indent(b, depth)
		b.WriteString("CALL ")
		if len(x.Args) == 0 {
			b.WriteString(x.Name)
		} else {
			appendCall(b, x.Name, x.Args)
		}
		b.WriteByte('\n')
	case *ReturnStmt:
		indent(b, depth)
		b.WriteString("RETURN\n")
	case *StopStmt:
		indent(b, depth)
		b.WriteString("STOP\n")
	case *ContinueStmt:
		indent(b, depth)
		b.WriteString("CONTINUE\n")
	case *CommentStmt:
		fmt.Fprintf(b, "C %s\n", x.Text)
	}
}

// writeParDirective emits the OpenMP-style directive encoding the
// parallelization verdict of a loop (the Polaris output for the target
// machine's annotated Fortran dialect).
func writeParDirective(b *strings.Builder, d *DoStmt, depth int) {
	p := d.Par
	if p == nil {
		return
	}
	if !p.Parallel {
		if len(p.LRPD) > 0 {
			fmt.Fprintf(b, "C$POLARIS LRPD(%s)\n", strings.Join(p.LRPD, ","))
		}
		return
	}
	clauses := ""
	// A live-out private goes in LASTPRIVATE only: OpenMP lets a name
	// appear in two data-sharing clauses of one directive only as
	// FIRSTPRIVATE plus LASTPRIVATE.
	priv := make([]string, 0, len(p.Private)+len(p.PrivateArrays))
	for _, list := range [][]string{p.Private, p.PrivateArrays} {
		for _, name := range list {
			if !slices.Contains(p.LastValue, name) {
				priv = append(priv, name)
			}
		}
	}
	if len(priv) > 0 {
		clauses += " PRIVATE(" + strings.Join(priv, ",") + ")"
	}
	if len(p.LastValue) > 0 {
		clauses += " LASTPRIVATE(" + strings.Join(p.LastValue, ",") + ")"
	}
	for _, r := range p.Reductions {
		clauses += fmt.Sprintf(" REDUCTION(%s:%s)", r.Op, r.Target)
	}
	fmt.Fprintf(b, "C$OMP PARALLEL DO%s\n", clauses)
}
