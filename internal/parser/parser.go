// Package parser turns Fortran-subset source into the Polaris IR.
//
// The accepted subset covers what the Polaris paper's analyses operate
// on: PROGRAM/SUBROUTINE/FUNCTION units, INTEGER/REAL/LOGICAL
// declarations with array dimensions, PARAMETER, DIMENSION, COMMON,
// assignments, DO/END DO loops (also labeled DO ... <label> CONTINUE),
// block and logical IF, CALL, RETURN, STOP, CONTINUE, and full
// arithmetic/relational/logical expressions with intrinsic calls.
package parser

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"polaris/internal/ir"
	"polaris/internal/lexer"
)

// ParseError is a parse (or lexical) error with a source position.
// It is the package's boundary error type: callers match it with
// errors.As and inspect Line/Col/Msg. Col is 1-based and 0 when the
// failing construct has no single column (for example a missing END).
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("line %d:%d: parse: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("line %d: parse: %s", e.Line, e.Msg)
}

type parser struct {
	sc *lexer.Scanner
	// toks is the statement being parsed, in the scanner's buffer; its
	// last token is a NEWLINE or the EOF, so toks[pos+1] exists wherever
	// the grammar looks one token ahead.
	toks []lexer.Token
	pos  int
	// lastLine is the line of the token consumed last.
	lastLine int
	// lexErr is the lexical error that ended the token stream early.
	lexErr error
	// scr holds the unit's symbols and the lists still being collected.
	scr *scratch
	// funcs records names of FUNCTION units so calls parse as Call
	// expressions rather than array references.
	funcs map[string]bool
	// src, and the byte offset at which its 1-based line number line
	// starts: the cursor unit sources are sliced with.
	src       string
	line, off int
}

func newParser(src string) *parser {
	p := &parser{sc: lexer.NewScanner(src), scr: scratchPool.Get().(*scratch), funcs: map[string]bool{}, src: src, line: 1}
	p.fill()
	return p
}

// scratch is a parse's working storage: the current unit's symbols,
// the table of the unit before, which the next table shares its equal
// symbols with, and one stack per kind of list, on which a list's
// elements gather until it ends and is copied out at its final length.
// Parses take it from scratchPool and zero it before they put it back,
// so between parses it holds no IR.
type scratch struct {
	syms  ir.SymbolBuilder
	prev  *ir.SymbolTable
	stmts []ir.Stmt
	exprs []ir.Expr
	dims  []ir.Dim
	names []string
	units []*ir.ProgramUnit
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release zeroes the scratch and returns it to the pool. Lists pop
// with their slots zeroed, so only a failed parse leaves any behind.
func (p *parser) release() {
	s := p.scr
	p.scr = nil
	s.syms.Reset()
	s.prev = nil
	s.stmts = zeroed(s.stmts)
	s.exprs = zeroed(s.exprs)
	s.dims = zeroed(s.dims)
	s.names = zeroed(s.names)
	s.units = zeroed(s.units)
	scratchPool.Put(s)
}

func zeroed[T any](stack []T) []T {
	clear(stack)
	return stack[:0]
}

// collect pops the list that starts at mark off the stack and returns
// it at its final length, nil when empty.
func collect[T any](stack *[]T, mark int) []T {
	s := *stack
	if len(s) == mark {
		return nil
	}
	list := make([]T, len(s)-mark)
	copy(list, s[mark:])
	clear(s[mark:])
	*stack = s[:mark]
	return list
}

// ParseProgram parses a whole source file into a Program and validates
// each unit, as it ends, with the IR consistency rules. The error is
// the first one in source order, lexical, syntactic or semantic.
func ParseProgram(src string) (*ir.Program, error) {
	p := newParser(src)
	defer p.release()
	// Pre-scan for FUNCTION names so forward calls resolve. A FUNCTION
	// token needs its eight letters on one line, so only statements
	// that spell them are tokenized. A lexical error ends the pre-scan:
	// the main pass reports it, or an error before it, and no program
	// comes back to carry the incomplete set.
	for pre := lexer.NewScanner(src); ; {
		toks, err := pre.NextContaining("FUNCTION")
		if err != nil {
			break
		}
		for i := 0; i+1 < len(toks); i++ {
			if toks[i].Kind == lexer.IDENT && toks[i].Text == "FUNCTION" && toks[i+1].Kind == lexer.IDENT {
				p.funcs[toks[i+1].Text] = true
			}
		}
		if toks[len(toks)-1].Kind == lexer.EOF {
			break
		}
	}
	prog := ir.NewProgram()
	// The function-name set is global parse context (it decides whether
	// F(I) is a call or an array reference in every unit), so it is
	// recorded on the program beside each unit's raw source slice. The
	// "f:" prefix keeps the signature non-empty even with no functions,
	// distinguishing parsed programs from hand-built ones.
	names := make([]string, 0, len(p.funcs))
	for name := range p.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	prog.FuncsSig = "f:" + strings.Join(names, ",")
	units := map[string]bool{}
	for {
		p.skipNewlines()
		if p.at(lexer.EOF) {
			break
		}
		start := int(p.cur().Line)
		u, err := p.parseUnit()
		if err != nil {
			return nil, p.firstError(err)
		}
		// Slice the unit's raw source from the line of its first token
		// to the line of its last. The lexer is line-local (the '&'
		// continuation flag never crosses a unit boundary) and the IR
		// carries no source positions, so two units with identical
		// slices — under the same function set — parse to identical IR
		// wherever they sit in a file. Incremental compilation keys
		// untouched units by exactly this pair.
		u.Source = src[p.lineStart(start):p.lineStart(p.lastLine+1)]
		// A unit that parsed ends before any lexical error, so its
		// semantic errors come first; they carry its header line.
		if units[u.Name] {
			// Program.Add panics on duplicates (an IR consistency
			// invariant); source-level duplicates are a parse error.
			// The set stands in for Add's scan of every unit so far,
			// which is quadratic in the units of a megaprogram.
			return nil, &ParseError{Line: start, Msg: fmt.Sprintf("duplicate program unit %s", u.Name)}
		}
		// No aliasing sweep: every node the parser builds is fresh.
		if err := u.CheckRules(); err != nil {
			var cerr *ir.ConsistencyError
			if errors.As(err, &cerr) {
				return nil, &ParseError{Line: start, Msg: cerr.Msg}
			}
			return nil, err
		}
		units[u.Name] = true
		p.scr.units = append(p.scr.units, u)
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	prog.Units = collect(&p.scr.units, 0)
	return prog, nil
}

// fill makes the next statement the current one. A lexical error is
// kept, as a ParseError so callers have one error type to match, and
// the parser is handed the end of the input in the statement's place.
func (p *parser) fill() {
	toks, err := p.sc.Next()
	if err != nil {
		var lerr *lexer.Error
		if errors.As(err, &lerr) {
			err = &ParseError{Line: lerr.Line, Col: lerr.Col, Msg: lerr.Msg}
		}
		p.lexErr = err
		toks = []lexer.Token{{Kind: lexer.EOF}}
	}
	p.toks, p.pos = toks, 0
}

// firstError picks the error to report. Once the scanner has failed,
// every statement before the failure has parsed, so whatever the
// parser then made of the cut-off input lies after the lexical error.
func (p *parser) firstError(err error) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// lineStart returns the byte offset at which line n of the source
// starts, or the source's length when it has fewer lines. Calls come
// with non-decreasing n, so together they walk the source once.
func (p *parser) lineStart(n int) int {
	for p.line < n {
		i := strings.IndexByte(p.src[p.off:], '\n')
		if i < 0 {
			return len(p.src)
		}
		p.off += i + 1
		p.line++
	}
	return p.off
}

// ParseExpr parses a single expression (used by tests and tools).
func ParseExpr(src string) (ir.Expr, error) {
	p := newParser(src)
	defer p.release()
	e, err := p.parseExpr()
	if err == nil {
		if p.skipNewlines(); !p.at(lexer.EOF) {
			err = p.errorf("trailing tokens after expression")
		}
	}
	if err = p.firstError(err); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) cur() lexer.Token     { return p.toks[p.pos] }
func (p *parser) at(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *parser) atOp(text string) bool {
	t := p.cur()
	return t.Kind == lexer.OP && t.Text == text
}

func (p *parser) atIdent(text string) bool {
	t := p.cur()
	return t.Kind == lexer.IDENT && t.Text == text
}

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind == lexer.EOF {
		return t
	}
	p.lastLine = int(t.Line)
	if p.pos++; p.pos == len(p.toks) {
		p.fill()
	}
	return t
}

func (p *parser) expectOp(text string) error {
	if !p.atOp(text) {
		return p.errorf("expected %q, found %q", text, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectIdent(text string) error {
	if !p.atIdent(text) {
		return p.errorf("expected %s, found %q", text, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectEOL() error {
	if p.at(lexer.EOF) {
		return nil
	}
	if !p.at(lexer.NEWLINE) {
		return p.errorf("unexpected %q at end of statement", p.cur())
	}
	p.next()
	return nil
}

func (p *parser) skipNewlines() {
	for p.at(lexer.NEWLINE) {
		p.next()
	}
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &ParseError{Line: int(p.cur().Line), Col: int(p.cur().Col), Msg: fmt.Sprintf(format, args...)}
}

// parseUnit parses one program unit up to its END. The unit's symbols
// gather in the scratch builder, and become its table at the END.
func (p *parser) parseUnit() (*ir.ProgramUnit, error) {
	var u *ir.ProgramUnit
	syms := &p.scr.syms
	switch {
	case p.atIdent("PROGRAM"):
		p.next()
		if !p.at(lexer.IDENT) {
			return nil, p.errorf("expected program name")
		}
		u = &ir.ProgramUnit{Kind: ir.UnitProgram, Name: p.next().Text}
	case p.atIdent("SUBROUTINE"):
		p.next()
		if !p.at(lexer.IDENT) {
			return nil, p.errorf("expected subroutine name")
		}
		u = &ir.ProgramUnit{Kind: ir.UnitSubroutine, Name: p.next().Text}
		formals, err := p.parseFormals()
		if err != nil {
			return nil, err
		}
		u.Formals = formals
	case p.atIdent("FUNCTION") || p.isTypedFunction():
		rt := ir.TypeUnknown
		if !p.atIdent("FUNCTION") {
			rt = keywordType(p.next().Text)
		}
		p.next() // FUNCTION
		if !p.at(lexer.IDENT) {
			return nil, p.errorf("expected function name")
		}
		u = &ir.ProgramUnit{Kind: ir.UnitFunction, Name: p.next().Text}
		formals, err := p.parseFormals()
		if err != nil {
			return nil, err
		}
		u.Formals = formals
		if rt == ir.TypeUnknown {
			rt = ir.ImplicitType(u.Name)
		}
		u.ReturnType = rt
		// The result variable has the function's name and type.
		syms.Declare(u.Name).Type = rt
	default:
		return nil, p.errorf("expected PROGRAM, SUBROUTINE, or FUNCTION, found %q", p.cur())
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	for _, f := range u.Formals {
		if syms.Lookup(f) == nil {
			syms.Declare(f).Formal = true
		}
	}
	body, err := p.parseBlock(map[string]bool{"END": true})
	if err != nil {
		return nil, err
	}
	u.Body = body
	if err := p.expectIdent("END"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	u.Symbols = syms.Table(p.scr.prev)
	p.scr.prev = u.Symbols
	return u, nil
}

func (p *parser) isTypedFunction() bool {
	if !p.at(lexer.IDENT) {
		return false
	}
	if keywordType(p.cur().Text) == ir.TypeUnknown {
		return false
	}
	return p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == lexer.IDENT && p.toks[p.pos+1].Text == "FUNCTION"
}

func (p *parser) parseFormals() ([]string, error) {
	if !p.atOp("(") {
		return nil, nil
	}
	p.next()
	if p.atOp(")") {
		p.next()
		return nil, nil
	}
	for {
		if !p.at(lexer.IDENT) {
			return nil, p.errorf("expected formal name")
		}
		p.scr.names = append(p.scr.names, p.next().Text)
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return collect(&p.scr.names, 0), nil
}

func keywordType(s string) ir.Type {
	switch s {
	case "INTEGER":
		return ir.TypeInteger
	case "REAL", "DOUBLEPRECISION":
		return ir.TypeReal
	case "LOGICAL":
		return ir.TypeLogical
	}
	return ir.TypeUnknown
}

// parseBlock parses statements until one of the stop keywords is at the
// start of a line (not consumed). Labeled CONTINUE statements that close
// labeled DOs are handled inside parseDo.
func (p *parser) parseBlock(stop map[string]bool) (*ir.Block, error) {
	mark := len(p.scr.stmts)
	for {
		p.skipNewlines()
		if p.at(lexer.EOF) || p.at(lexer.IDENT) && stop[p.stopKeyword()] {
			return p.block(mark), nil
		}
		if p.at(lexer.LABEL) {
			// A labeled statement terminates blocks only via parseDo,
			// which watches for its own label.
			return p.block(mark), nil
		}
		if err := p.parseStmtInto(); err != nil {
			return nil, err
		}
	}
}

// parseStmtInto parses one statement and, unless it is a declaration,
// pushes it on the statement stack.
func (p *parser) parseStmtInto() error {
	s, err := p.parseStmt()
	if err == nil && s != nil {
		p.scr.stmts = append(p.scr.stmts, s)
	}
	return err
}

// block pops the statements from mark on into a block.
func (p *parser) block(mark int) *ir.Block {
	return &ir.Block{Stmts: collect(&p.scr.stmts, mark)}
}

// stopKeyword normalizes two-token closers (END DO, END IF, ELSE IF)
// into single keywords for block termination.
func (p *parser) stopKeyword() string {
	t := p.cur().Text
	if t == "END" && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == lexer.IDENT {
		switch p.toks[p.pos+1].Text {
		case "DO":
			return "ENDDO"
		case "IF":
			return "ENDIF"
		}
	}
	if t == "ELSE" {
		return "ELSE"
	}
	return t
}

// consumeCloser consumes a normalized closer keyword (ENDDO, ENDIF, ...).
func (p *parser) consumeCloser(kw string) error {
	switch kw {
	case "ENDDO":
		if p.atIdent("ENDDO") {
			p.next()
		} else {
			p.next() // END
			p.next() // DO
		}
	case "ENDIF":
		if p.atIdent("ENDIF") {
			p.next()
		} else {
			p.next()
			p.next()
		}
	default:
		p.next()
	}
	return p.expectEOL()
}

func (p *parser) parseStmt() (ir.Stmt, error) {
	t := p.cur()
	if t.Kind != lexer.IDENT {
		return nil, p.errorf("expected statement, found %q", t)
	}
	switch t.Text {
	case "INTEGER", "REAL", "LOGICAL", "DOUBLEPRECISION":
		return nil, p.parseTypeDecl()
	case "DIMENSION":
		return nil, p.parseDimension()
	case "PARAMETER":
		return nil, p.parseParameter()
	case "COMMON":
		return nil, p.parseCommon()
	case "IMPLICIT":
		// IMPLICIT NONE accepted and ignored (implicit typing stays on
		// for robustness of the synthetic suite).
		for !p.at(lexer.NEWLINE) && !p.at(lexer.EOF) {
			p.next()
		}
		return nil, p.expectEOL()
	case "DO":
		return p.parseDo()
	case "IF":
		return p.parseIf()
	case "CALL":
		return p.parseCall()
	case "RETURN":
		p.next()
		return &ir.ReturnStmt{}, p.expectEOL()
	case "STOP":
		p.next()
		return &ir.StopStmt{}, p.expectEOL()
	case "CONTINUE":
		p.next()
		return &ir.ContinueStmt{}, p.expectEOL()
	}
	// Otherwise: assignment.
	return p.parseAssign()
}

func (p *parser) parseTypeDecl() error {
	typ := keywordType(p.next().Text)
	for {
		if !p.at(lexer.IDENT) {
			return p.errorf("expected name in type declaration")
		}
		name := p.next().Text
		dims, err := p.parseDims()
		if err != nil {
			return err
		}
		sym := p.scr.syms.Declare(name)
		sym.Type = typ
		if dims != nil {
			sym.Dims = dims
		}
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	return p.expectEOL()
}

func (p *parser) parseDims() ([]ir.Dim, error) {
	if !p.atOp("(") {
		return nil, nil
	}
	p.next()
	mark := len(p.scr.dims)
	for {
		var d ir.Dim
		if p.atOp("*") {
			p.next()
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.atOp(":") {
				p.next()
				d.Lo = e
				if p.atOp("*") {
					p.next()
				} else {
					hi, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					d.Hi = hi
				}
			} else {
				d.Hi = e
			}
		}
		p.scr.dims = append(p.scr.dims, d)
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return collect(&p.scr.dims, mark), nil
}

func (p *parser) parseDimension() error {
	p.next()
	for {
		if !p.at(lexer.IDENT) {
			return p.errorf("expected name in DIMENSION")
		}
		name := p.next().Text
		dims, err := p.parseDims()
		if err != nil {
			return err
		}
		if dims == nil {
			return p.errorf("DIMENSION %s without dimensions", name)
		}
		sym := p.scr.syms.Declare(name)
		sym.Dims = dims
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	return p.expectEOL()
}

func (p *parser) parseParameter() error {
	p.next()
	if err := p.expectOp("("); err != nil {
		return err
	}
	for {
		if !p.at(lexer.IDENT) {
			return p.errorf("expected name in PARAMETER")
		}
		name := p.next().Text
		if err := p.expectOp("="); err != nil {
			return err
		}
		val, err := p.parseExpr()
		if err != nil {
			return err
		}
		sym := p.scr.syms.Declare(name)
		sym.Param = val
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return err
	}
	return p.expectEOL()
}

func (p *parser) parseCommon() error {
	p.next()
	block := ""
	if p.atOp("/") {
		p.next()
		if !p.at(lexer.IDENT) {
			return p.errorf("expected common block name")
		}
		block = p.next().Text
		if err := p.expectOp("/"); err != nil {
			return err
		}
	}
	for {
		if !p.at(lexer.IDENT) {
			return p.errorf("expected name in COMMON")
		}
		name := p.next().Text
		dims, err := p.parseDims()
		if err != nil {
			return err
		}
		sym := p.scr.syms.Declare(name)
		sym.Common = block
		if dims != nil {
			sym.Dims = dims
		}
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	return p.expectEOL()
}

func (p *parser) parseDo() (ir.Stmt, error) {
	p.next() // DO
	label := ""
	if p.at(lexer.INT) {
		label = p.next().Text
	}
	if !p.at(lexer.IDENT) {
		return nil, p.errorf("expected DO index variable")
	}
	index := p.next().Text
	p.scr.syms.Declare(index)
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	limit, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var step ir.Expr
	if p.atOp(",") {
		p.next()
		step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	d := &ir.DoStmt{Index: index, Init: init, Limit: limit, Step: step}
	if label == "" {
		body, err := p.parseBlock(map[string]bool{"ENDDO": true})
		if err != nil {
			return nil, err
		}
		d.Body = body
		if !p.atIdent("ENDDO") && !(p.atIdent("END") && p.toks[p.pos+1].Text == "DO") {
			return nil, p.errorf("expected END DO, found %q", p.cur())
		}
		if err := p.consumeCloser("ENDDO"); err != nil {
			return nil, err
		}
		return d, nil
	}
	// Labeled DO: parse until "label CONTINUE".
	mark := len(p.scr.stmts)
	for {
		p.skipNewlines()
		if p.at(lexer.EOF) {
			return nil, p.errorf("unterminated DO %s", label)
		}
		if p.at(lexer.LABEL) {
			if p.cur().Text == label {
				p.next()
				if err := p.expectIdent("CONTINUE"); err != nil {
					return nil, err
				}
				if err := p.expectEOL(); err != nil {
					return nil, err
				}
				d.Body = p.block(mark)
				return d, nil
			}
			return nil, p.errorf("unexpected label %s inside DO %s", p.cur().Text, label)
		}
		if err := p.parseStmtInto(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseIf() (ir.Stmt, error) {
	p.next() // IF
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.atIdent("THEN") {
		p.next()
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return p.parseIfBlock(cond)
	}
	// Logical IF: a single statement on the same line.
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if body == nil {
		return nil, p.errorf("logical IF requires an executable statement")
	}
	return &ir.IfStmt{Cond: cond, Then: ir.NewBlock(body)}, nil
}

func (p *parser) parseIfBlock(cond ir.Expr) (ir.Stmt, error) {
	then, err := p.parseBlock(map[string]bool{"ELSE": true, "ELSEIF": true, "ENDIF": true})
	if err != nil {
		return nil, err
	}
	st := &ir.IfStmt{Cond: cond, Then: then}
	switch p.stopKeyword() {
	case "ELSEIF":
		p.next() // ELSEIF (single token)
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		c2, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if err := p.expectIdent("THEN"); err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		nested, err := p.parseIfBlock(c2)
		if err != nil {
			return nil, err
		}
		st.Else = ir.NewBlock(nested)
		return st, nil
	case "ELSE":
		// Could be ELSE or "ELSE IF (...) THEN".
		p.next()
		if p.atIdent("IF") {
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			c2, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			if err := p.expectIdent("THEN"); err != nil {
				return nil, err
			}
			if err := p.expectEOL(); err != nil {
				return nil, err
			}
			nested, err := p.parseIfBlock(c2)
			if err != nil {
				return nil, err
			}
			st.Else = ir.NewBlock(nested)
			return st, nil
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		els, err := p.parseBlock(map[string]bool{"ENDIF": true})
		if err != nil {
			return nil, err
		}
		st.Else = els
		if p.stopKeyword() != "ENDIF" {
			return nil, p.errorf("expected END IF, found %q", p.cur())
		}
		if err := p.consumeCloser("ENDIF"); err != nil {
			return nil, err
		}
		return st, nil
	case "ENDIF":
		if err := p.consumeCloser("ENDIF"); err != nil {
			return nil, err
		}
		return st, nil
	}
	return nil, p.errorf("expected ELSE or END IF, found %q", p.cur())
}

func (p *parser) parseCall() (ir.Stmt, error) {
	p.next() // CALL
	if !p.at(lexer.IDENT) {
		return nil, p.errorf("expected subroutine name after CALL")
	}
	name := p.next().Text
	var args []ir.Expr
	if p.atOp("(") {
		var err error
		if args, err = p.parseArgList(); err != nil {
			return nil, err
		}
	}
	return &ir.CallStmt{Name: name, Args: args}, p.expectEOL()
}

func (p *parser) parseAssign() (ir.Stmt, error) {
	if !p.at(lexer.IDENT) {
		return nil, p.errorf("expected assignment target")
	}
	name := p.next().Text
	var lhs ir.Expr
	if p.atOp("(") {
		subs, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		// Declare the array if unknown: rank from use, assumed size.
		sym := p.scr.syms.Declare(name)
		if !sym.IsArray() {
			dims := make([]ir.Dim, len(subs))
			sym.Dims = dims
		}
		lhs = &ir.ArrayRef{Name: name, Subs: subs}
	} else {
		p.scr.syms.Declare(name)
		lhs = ir.Var(name)
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ir.AssignStmt{LHS: lhs, RHS: rhs}, p.expectEOL()
}

func (p *parser) parseArgList() ([]ir.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.atOp(")") {
		p.next()
		return nil, nil
	}
	mark := len(p.scr.exprs)
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.scr.exprs = append(p.scr.exprs, a)
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return collect(&p.scr.exprs, mark), nil
}

// Expression grammar, by precedence (lowest first):
//   expr    := orExpr
//   orExpr  := andExpr (.OR. andExpr)*
//   andExpr := notExpr (.AND. notExpr)*
//   notExpr := .NOT. notExpr | relExpr
//   relExpr := arith (relop arith)?
//   arith   := term ((+|-) term)*
//   term    := factor ((*|/) factor)*
//   factor  := primary (** factor)?     (right-assoc)
//   primary := literal | name | name(args) | (expr) | -primary | +primary

func (p *parser) parseExpr() (ir.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (ir.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atOp(".OR.") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = ir.Bin(ir.OpOr, l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (ir.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atOp(".AND.") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = ir.Bin(ir.OpAnd, l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (ir.Expr, error) {
	if p.atOp(".NOT.") {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ir.Unary{Op: ir.OpNot, X: x}, nil
	}
	return p.parseRel()
}

var relOps = map[string]ir.BinOp{
	".EQ.": ir.OpEq, ".NE.": ir.OpNe, ".LT.": ir.OpLt,
	".LE.": ir.OpLe, ".GT.": ir.OpGt, ".GE.": ir.OpGe,
}

func (p *parser) parseRel() (ir.Expr, error) {
	l, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == lexer.OP {
		if op, ok := relOps[p.cur().Text]; ok {
			p.next()
			r, err := p.parseArith()
			if err != nil {
				return nil, err
			}
			return ir.Bin(op, l, r), nil
		}
	}
	return l, nil
}

func (p *parser) parseArith() (ir.Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		op := ir.OpAdd
		if p.next().Text == "-" {
			op = ir.OpSub
		}
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = ir.Bin(op, l, r)
	}
	return l, nil
}

func (p *parser) parseTerm() (ir.Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") {
		op := ir.OpMul
		if p.next().Text == "/" {
			op = ir.OpDiv
		}
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = ir.Bin(op, l, r)
	}
	return l, nil
}

func (p *parser) parseFactor() (ir.Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.atOp("**") {
		p.next()
		r, err := p.parseFactor() // right-associative
		if err != nil {
			return nil, err
		}
		return ir.Bin(ir.OpPow, l, r), nil
	}
	return l, nil
}

// Intrinsics of the subset; calls to these always parse as Call.
var intrinsics = map[string]bool{
	"MOD": true, "MAX": true, "MIN": true, "ABS": true, "IABS": true,
	"SQRT": true, "EXP": true, "LOG": true, "SIN": true, "COS": true,
	"INT": true, "NINT": true, "FLOAT": true, "REAL": true, "DBLE": true,
	"SIGN": true, "MAX0": true, "MIN0": true, "AMAX1": true, "AMIN1": true,
	"ATAN": true, "TAN": true,
}

func (p *parser) parsePrimary() (ir.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return ir.Int(v), nil
	case lexer.REAL:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad real literal %q", t.Text)
		}
		return ir.Real(v), nil
	case lexer.LOGICAL:
		p.next()
		return ir.Logical(t.Text == ".TRUE."), nil
	case lexer.IDENT:
		name := p.next().Text
		if !p.atOp("(") {
			p.scr.syms.Declare(name)
			return ir.Var(name), nil
		}
		args, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		if intrinsics[name] || p.funcs[name] {
			return &ir.Call{Name: name, Args: args}, nil
		}
		sym := p.scr.syms.Declare(name)
		if !sym.IsArray() {
			sym.Dims = make([]ir.Dim, len(args))
		}
		return &ir.ArrayRef{Name: name, Subs: args}, nil
	}
	if p.atOp("(") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	if p.atOp("-") {
		p.next()
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return ir.Neg(x), nil
	}
	if p.atOp("+") {
		p.next()
		return p.parseFactor()
	}
	return nil, p.errorf("unexpected %q in expression", t)
}

// MustParse parses src and panics on error; a convenience for tests and
// the embedded benchmark suite whose sources are known-good.
func MustParse(src string) *ir.Program {
	prog, err := ParseProgram(src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse: %v\nsource:\n%s", err, numberLines(src)))
	}
	return prog
}

func numberLines(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "%4d| %s\n", i+1, l)
	}
	return b.String()
}
