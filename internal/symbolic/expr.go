// Package symbolic implements the symbolic expression algebra
// underlying Polaris' analyses: canonical multivariate polynomials with
// rational coefficients over "atoms" (integer program variables and
// opaque uninterpreted terms), with simplification, substitution,
// forward differences, closed-form summation (Faulhaber), and
// range-based monotonicity reasoning (the machinery of the range test
// of Blume & Eigenmann and of range propagation).
//
// An Expr is one slice of terms sorted by monomial key. Exprs are
// immutable after construction and cache their canonical fingerprints:
// atom and monomial keys when a term is built, the rendered String,
// forward differences and negations on first use. The caches make
// repeated comparisons allocation-free but are not synchronized: values
// built during one compilation must not be shared across goroutines
// (each compilation builds its own expressions, its leaves from its own
// Leaves table, so this never arises in practice).
package symbolic

import (
	"math/big"
	"strconv"
	"strings"
)

// Atom is a symbolic unknown: a plain integer variable (Args == nil) or
// an opaque term such as IND(K+1) or IDIV(X, 2) whose meaning the
// algebra does not interpret. Call distinguishes opaque function calls
// from opaque array-element reads when converting back to IR.
type Atom struct {
	Name string
	Args []*Expr
	Call bool
	// ck caches the canonical key ("" = not yet computed).
	ck string
}

// key returns a canonical identity string for the atom.
func (a Atom) key() string {
	if a.ck != "" {
		return a.ck
	}
	return a.computeKey()
}

func (a Atom) computeKey() string {
	if a.Args == nil {
		return a.Name
	}
	parts := make([]string, len(a.Args))
	for i, e := range a.Args {
		parts[i] = e.String()
	}
	prefix := ""
	if a.Call {
		prefix = "@"
	}
	return prefix + a.Name + "(" + strings.Join(parts, ",") + ")"
}

// factor is an atom raised to a positive integer power.
type factor struct {
	atom Atom
	pow  int
}

// atomKey returns the factor's atom key. Every factor is built by Var
// or OpaqueAtom, which compute the key up front, so reading it never
// writes to a factor slice that terms share.
func (f *factor) atomKey() string { return f.atom.ck }

// term is a rational coefficient times a product of factors. Factors
// are sorted by atom key and, like mk, never change once the term is
// built: terms are copied between polynomials by value and share the
// factor slice.
type term struct {
	coef    qv
	factors []factor
	// mk is the monomial key the enclosing Expr sorts by, computed when
	// the term is built ("" for the constant term).
	mk string
}

// monoKey renders a sorted factor list as the monomial key.
func monoKey(fs []factor) string {
	if len(fs) == 0 {
		return ""
	}
	n := len(fs) - 1
	for i := range fs {
		n += len(fs[i].atomKey()) + 1 + len(strconv.Itoa(fs[i].pow))
	}
	var b strings.Builder
	b.Grow(n)
	for i := range fs {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(fs[i].atomKey())
		b.WriteByte('^')
		b.WriteString(strconv.Itoa(fs[i].pow))
	}
	return b.String()
}

// Expr is a canonical sum of terms. The zero polynomial has no terms.
// Exprs are immutable: all operations return new values.
type Expr struct {
	// terms is sorted by strictly ascending monomial key, so the
	// constant term (key "") comes first, and holds no zero
	// coefficient. Only a builder may write to it, and only before the
	// Expr has been returned to anyone (see insert).
	terms []term
	// str caches the canonical rendering ("" = not computed; the zero
	// polynomial renders as "0", never "").
	str string
	// fd caches forward differences by variable: one or two entries,
	// scanned.
	fd []fdEntry
	// neg caches the negation (mutually linked: negating an exact
	// canonical polynomial is an involution).
	neg *Expr
	// sub caches substitution results keyed by variable and
	// replacement fingerprint: the prover substitutes the same loop
	// bounds into the same subscript expressions for every access pair
	// and every fresh per-pair environment.
	sub map[substKey]*Expr
}

// fdEntry is one cached forward difference: d = e(v+1) - e(v).
type fdEntry struct {
	v string
	d *Expr
}

// substKey identifies one substitution: the variable and the canonical
// fingerprint of the replacement expression.
type substKey struct {
	name string
	repl string
}

// insert adds t to e, merging it into a term of the same monomial.
// It is the one place a polynomial is written after allocation, and is
// only for a polynomial its builder has not returned yet: e.terms must
// be e's own slice, never another Expr's.
func (e *Expr) insert(t term) {
	if t.coef.Sign() == 0 {
		return
	}
	// Builders mostly produce terms in ascending order: scan from the end.
	i := len(e.terms)
	for i > 0 && e.terms[i-1].mk > t.mk {
		i--
	}
	if i > 0 && e.terms[i-1].mk == t.mk {
		if c := qvAdd(e.terms[i-1].coef, t.coef); c.Sign() != 0 {
			e.terms[i-1].coef = c
		} else {
			e.terms = append(e.terms[:i-1], e.terms[i:]...)
		}
		return
	}
	e.terms = append(e.terms, term{})
	copy(e.terms[i+1:], e.terms[i:])
	e.terms[i] = t
}

// single returns the polynomial of the one term t, the Expr and its
// term slice in one allocation.
func single(t term) *Expr {
	if t.coef.Sign() == 0 {
		return Zero()
	}
	box := &struct {
		e Expr
		t [1]term
	}{t: [1]term{t}}
	box.e.terms = box.t[:]
	return &box.e
}

// Zero returns the zero polynomial.
func Zero() *Expr { return &Expr{} }

// Int returns the constant polynomial v.
func Int(v int64) *Expr { return single(term{coef: qvInt(v)}) }

// Rat returns the constant polynomial r.
func Rat(r *big.Rat) *Expr { return single(term{coef: qvFromRat(r)}) }

// Var returns the polynomial consisting of the single variable name.
func Var(name string) *Expr { return OpaqueAtom(Atom{Name: name, ck: name}) }

// Opaque returns a polynomial consisting of the single opaque term
// name(args...).
func Opaque(name string, args ...*Expr) *Expr {
	if args == nil {
		args = []*Expr{}
	}
	return OpaqueAtom(Atom{Name: name, Args: args})
}

// OpaqueAtom returns a polynomial consisting of the single atom a.
func OpaqueAtom(a Atom) *Expr {
	if a.ck == "" {
		a.ck = a.computeKey()
	}
	// The key is monoKey of the one factor, spelled out to save its builder.
	return single(term{coef: qvInt(1), factors: []factor{{atom: a, pow: 1}}, mk: a.ck + "^1"})
}

// Add returns a + b.
func Add(a, b *Expr) *Expr {
	if len(a.terms) == 0 {
		return b
	}
	if len(b.terms) == 0 {
		return a
	}
	return merge(a.terms, b.terms, false)
}

// Sub returns a - b.
func Sub(a, b *Expr) *Expr {
	if len(b.terms) == 0 {
		return a
	}
	if len(a.terms) == 0 {
		return Neg(b)
	}
	return merge(a.terms, b.terms, true)
}

// merge returns a + b, or a - b when negB: one linear merge of two
// sorted term lists into a slice a counting pass has sized.
func merge(a, b []term, negB bool) *Expr {
	n := len(a) + len(b)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].mk, b[j].mk); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n--
			i++
			j++
		}
	}
	out := make([]term, 0, n)
	i := 0
	for _, tb := range b {
		for i < len(a) && a[i].mk < tb.mk {
			out = append(out, a[i])
			i++
		}
		if negB {
			tb.coef = qvNeg(tb.coef)
		}
		if i < len(a) && a[i].mk == tb.mk {
			tb.coef = qvAdd(a[i].coef, tb.coef)
			i++
			if tb.coef.Sign() == 0 {
				continue
			}
		}
		out = append(out, tb)
	}
	return &Expr{terms: append(out, a[i:]...)}
}

// Neg returns -a, memoized: the result links back so Neg(Neg(a))
// returns a itself. The prover negates the same expressions repeatedly
// (ProveLE/ProveLT, both monotonicity probes of every elimination
// step), so the cache turns those into pointer loads.
func Neg(a *Expr) *Expr {
	if a.neg == nil {
		a.neg = scale(a, qv{n: -1, d: 1})
		a.neg.neg = a
	}
	return a.neg
}

// scale returns a with every coefficient multiplied by q, sharing the
// factor slices (a nonzero q makes no term vanish or move).
func scale(a *Expr, q qv) *Expr {
	if q.Sign() == 0 {
		return Zero()
	}
	e := &Expr{terms: make([]term, len(a.terms))}
	for i, t := range a.terms {
		t.coef = qvMul(t.coef, q)
		e.terms[i] = t
	}
	return e
}

// Mul returns a * b, combining factors and collecting like monomials.
func Mul(a, b *Expr) *Expr {
	// Constant operands reduce to scaling, sharing factor slices.
	if c, ok := a.constQV(); ok {
		return scale(b, c)
	}
	if c, ok := b.constQV(); ok {
		return scale(a, c)
	}
	e := &Expr{terms: make([]term, 0, len(a.terms)*len(b.terms))}
	for i := range a.terms {
		for j := range b.terms {
			e.insert(mulTerms(&a.terms[i], &b.terms[j]))
		}
	}
	return e
}

// mulTerms returns the product term. A constant operand leaves the
// other's factor slice and key shared; otherwise the two sorted factor
// lists merge into a new one, powers of a common atom adding.
func mulTerms(a, b *term) term {
	t := term{coef: qvMul(a.coef, b.coef), factors: a.factors, mk: a.mk}
	switch {
	case len(b.factors) == 0:
	case len(a.factors) == 0:
		t.factors, t.mk = b.factors, b.mk
	default:
		fs := make([]factor, 0, len(a.factors)+len(b.factors))
		i := 0
		for _, fb := range b.factors {
			for i < len(a.factors) && a.factors[i].atomKey() < fb.atomKey() {
				fs = append(fs, a.factors[i])
				i++
			}
			if i < len(a.factors) && a.factors[i].atomKey() == fb.atomKey() {
				fb.pow += a.factors[i].pow
				i++
			}
			fs = append(fs, fb)
		}
		t.factors = append(fs, a.factors[i:]...)
		t.mk = monoKey(t.factors)
	}
	return t
}

// MulRat returns a scaled by the rational r.
func MulRat(a *Expr, r *big.Rat) *Expr { return scale(a, qvFromRat(r)) }

// Pow returns a**n for n >= 0.
func Pow(a *Expr, n int) *Expr {
	if n < 0 {
		panic("symbolic: negative exponent")
	}
	switch n {
	case 0:
		return Int(1)
	case 1:
		return a
	}
	r := a
	for i := 1; i < n; i++ {
		r = Mul(r, a)
	}
	return r
}

// IsZero reports whether e is the zero polynomial.
func (e *Expr) IsZero() bool { return len(e.terms) == 0 }

// constCoef returns the coefficient of the constant term (zero if
// none).
func (e *Expr) constCoef() qv {
	if len(e.terms) > 0 && e.terms[0].mk == "" {
		return e.terms[0].coef
	}
	return qv{n: 0, d: 1}
}

// constQV returns the value as a qv and true if e is a constant
// polynomial (no allocation).
func (e *Expr) constQV() (qv, bool) {
	if len(e.terms) == 0 || len(e.terms) == 1 && e.terms[0].mk == "" {
		return e.constCoef(), true
	}
	return qv{}, false
}

// ConstSign returns the sign of e and true when e is constant,
// without allocating.
func (e *Expr) ConstSign() (int, bool) {
	c, ok := e.constQV()
	return c.Sign(), ok
}

// ConstInt64 returns the value and true when e is a constant integer
// polynomial fitting int64, without allocating.
func (e *Expr) ConstInt64() (int64, bool) {
	c, ok := e.constQV()
	if !ok {
		return 0, false
	}
	return c.int64()
}

// ConstCompare returns sign(a-b) and true when both polynomials are
// constants, without allocating in the common small-coefficient case.
func ConstCompare(a, b *Expr) (int, bool) {
	ca, oka := a.constQV()
	cb, okb := b.constQV()
	if !oka || !okb {
		return 0, false
	}
	return qvCmp(ca, cb), true
}

// Const returns the value and true if e is a constant polynomial. It
// allocates the big.Rat: callers that want only a sign, an int64 or a
// comparison use ConstSign, ConstInt64 or ConstCompare.
func (e *Expr) Const() (*big.Rat, bool) {
	c, ok := e.constQV()
	if !ok {
		return nil, false
	}
	return c.Rat(), true
}

// ConstTerm returns the constant term of e (zero if none).
func (e *Expr) ConstTerm() *big.Rat { return e.constCoef().Rat() }

// Equal reports whether a and b are the same polynomial.
func Equal(a, b *Expr) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	for i := range a.terms {
		if a.terms[i].mk != b.terms[i].mk || qvCmp(a.terms[i].coef, b.terms[i].coef) != 0 {
			return false
		}
	}
	return true
}

// ContainsVar reports whether e references the plain variable name,
// including inside opaque-atom arguments.
func (e *Expr) ContainsVar(name string) bool {
	for i := range e.terms {
		if termContainsVar(&e.terms[i], name) {
			return true
		}
	}
	return false
}

// termContainsVar reports whether any factor of t references name.
func termContainsVar(t *term, name string) bool {
	for i := range t.factors {
		if atomContainsVar(t.factors[i].atom, name) {
			return true
		}
	}
	return false
}

func atomContainsVar(a Atom, name string) bool {
	if a.Args == nil {
		return a.Name == name
	}
	for _, arg := range a.Args {
		if arg.ContainsVar(name) {
			return true
		}
	}
	return false
}

// Vars returns the set of plain variable names in e, including those
// inside opaque-atom arguments.
func (e *Expr) Vars() map[string]bool {
	set := map[string]bool{}
	e.collectVars(set)
	return set
}

func (e *Expr) collectVars(set map[string]bool) {
	for i := range e.terms {
		for _, f := range e.terms[i].factors {
			if f.atom.Args == nil {
				set[f.atom.Name] = true
			} else {
				for _, arg := range f.atom.Args {
					arg.collectVars(set)
				}
			}
		}
	}
}

// HasOpaque reports whether e contains any opaque atom.
func (e *Expr) HasOpaque() bool {
	for i := range e.terms {
		for _, f := range e.terms[i].factors {
			if f.atom.Args != nil {
				return true
			}
		}
	}
	return false
}

// EachOpaqueAtom calls f with the canonical key and value of each
// distinct opaque atom of e, in term order, until f returns false.
// Atoms nested in an atom's arguments are not visited. Unlike
// OpaqueAtoms it allocates nothing and its order is fixed.
func (e *Expr) EachOpaqueAtom(f func(key string, a Atom) bool) {
	for i := range e.terms {
		for j := range e.terms[i].factors {
			fc := &e.terms[i].factors[j]
			if fc.atom.Args == nil || e.hasAtomBefore(i, fc.atomKey()) {
				continue
			}
			if !f(fc.atomKey(), fc.atom) {
				return
			}
		}
	}
}

// hasAtomBefore reports whether a term before the i-th has the atom as
// a factor (within one term atoms are distinct).
func (e *Expr) hasAtomBefore(i int, atomKey string) bool {
	for _, t := range e.terms[:i] {
		for j := range t.factors {
			if t.factors[j].atomKey() == atomKey {
				return true
			}
		}
	}
	return false
}

// OpaqueAtoms returns the distinct opaque atoms of e keyed canonically,
// for callers that need the set; predicates use EachOpaqueAtom.
func (e *Expr) OpaqueAtoms() map[string]Atom {
	out := map[string]Atom{}
	e.EachOpaqueAtom(func(key string, a Atom) bool {
		out[key] = a
		return true
	})
	return out
}

// Subst returns e with every occurrence of the plain variable name
// replaced by repl, including occurrences inside opaque-atom arguments.
// Results are memoized per (name, repl) pair: elimination re-runs the
// same bound substitutions across access pairs and environments.
func (e *Expr) Subst(name string, repl *Expr) *Expr {
	if !e.ContainsVar(name) {
		return e
	}
	key := substKey{name: name, repl: repl.String()}
	if r, ok := e.sub[key]; ok {
		return r
	}
	out := e.substSlow(name, repl)
	if e.sub == nil {
		e.sub = map[substKey]*Expr{}
	}
	e.sub[key] = out
	return out
}

func (e *Expr) substSlow(name string, repl *Expr) *Expr {
	out := &Expr{terms: make([]term, 0, len(e.terms))}
	for i := range e.terms {
		t := &e.terms[i]
		// Terms not touching name carry over unchanged (the common
		// case: elimination rewrites one variable of many).
		if !termContainsVar(t, name) {
			out.insert(*t)
			continue
		}
		// Split the term: factors free of name stay a raw monomial
		// (rest); only the touched factors expand into polynomials.
		rest := term{coef: t.coef}
		var expanded *Expr
		for j := range t.factors {
			f := &t.factors[j]
			var base *Expr
			switch {
			case f.atom.Args == nil && f.atom.Name == name:
				base = repl
			case !atomContainsVar(f.atom, name):
				rest.factors = append(rest.factors, *f)
				continue
			default:
				args := make([]*Expr, len(f.atom.Args))
				for k, a := range f.atom.Args {
					args[k] = a.Subst(name, repl)
				}
				base = OpaqueAtom(Atom{Name: f.atom.Name, Args: args, Call: f.atom.Call})
			}
			p := Pow(base, f.pow)
			if expanded == nil {
				expanded = p
			} else {
				expanded = Mul(expanded, p)
			}
		}
		rest.mk = monoKey(rest.factors)
		// termContainsVar guaranteed at least one touched factor;
		// expanded may be repl itself (Pow(x, 1) returns x) and is only
		// read.
		for j := range expanded.terms {
			out.insert(mulTerms(&expanded.terms[j], &rest))
		}
	}
	return out
}

// ForwardDiff returns e(v+1) - e(v): the first forward difference with
// respect to the integer variable v, the monotonicity probe of the
// range test. Where v occurs only to the first power and in no opaque
// atom — nearly every subscript — that is the coefficient of v, read
// off; otherwise v+1 is substituted and e subtracted. The result is
// cached per variable: the range test probes the same expressions
// repeatedly across access pairs.
func (e *Expr) ForwardDiff(v string) *Expr {
	for _, c := range e.fd {
		if c.v == v {
			return c.d
		}
	}
	var d *Expr
	if deg, inOpaque := e.DegreeIn(v); deg <= 1 && !inOpaque {
		d = e.coeff(v, 1)
	} else {
		d = Sub(e.Subst(v, Add(Var(v), Int(1))), e)
	}
	e.fd = append(e.fd, fdEntry{v, d})
	return d
}

// DegreeIn returns the highest power of the plain variable v occurring
// in e as a direct factor, and whether v also occurs inside opaque
// atom arguments (in which case polynomial operations on v such as
// closed-form summation are not available).
func (e *Expr) DegreeIn(v string) (deg int, inOpaque bool) {
	for i := range e.terms {
		for _, f := range e.terms[i].factors {
			if f.atom.Args == nil && f.atom.Name == v {
				if f.pow > deg {
					deg = f.pow
				}
			} else if f.atom.Args != nil {
				for _, a := range f.atom.Args {
					if a.ContainsVar(v) {
						inOpaque = true
					}
				}
			}
		}
	}
	return deg, inOpaque
}

// CoeffsIn decomposes e as sum_d coeff[d] * v^d and returns the
// coefficient polynomials (which do not contain v as a direct factor).
// ok is false if v occurs inside an opaque atom argument.
func (e *Expr) CoeffsIn(v string) (coeffs []*Expr, ok bool) {
	deg, inOpaque := e.DegreeIn(v)
	if inOpaque {
		return nil, false
	}
	coeffs = make([]*Expr, deg+1)
	for d := range coeffs {
		coeffs[d] = e.coeff(v, d)
	}
	return coeffs, true
}

// powerIn returns the power to which the plain variable v is a direct
// factor of t (0 when it is none) and that factor's index.
func powerIn(t *term, v string) (pow, at int) {
	for j := range t.factors {
		if f := &t.factors[j]; f.atom.Args == nil && f.atom.Name == v {
			return f.pow, j
		}
	}
	return 0, -1
}

// coeff returns the coefficient of v^d in e: the terms holding the plain
// variable v as a direct factor to exactly that power, with the factor
// dropped. The terms are counted first, so the slice is allocated once.
func (e *Expr) coeff(v string, d int) *Expr {
	n := 0
	for i := range e.terms {
		if p, _ := powerIn(&e.terms[i], v); p == d {
			n++
		}
	}
	c := &Expr{terms: make([]term, 0, n)}
	for i := range e.terms {
		t := &e.terms[i]
		p, at := powerIn(t, v)
		if p != d {
			continue
		}
		if at < 0 {
			c.terms = append(c.terms, *t) // free of v: e's own order
			continue
		}
		// Distinct terms of e cannot collide in one coefficient (same
		// power and same residual monomial would be the same monomial
		// of e), but dropping v can reorder them: insert, not append.
		rest := make([]factor, 0, len(t.factors)-1)
		rest = append(append(rest, t.factors[:at]...), t.factors[at+1:]...)
		c.insert(term{coef: t.coef, factors: rest, mk: monoKey(rest)})
	}
	return c
}

// DenominatorLCM returns the least common multiple of all coefficient
// denominators (1 for integer polynomials).
func (e *Expr) DenominatorLCM() *big.Int {
	l := big.NewInt(1)
	for i := range e.terms {
		d := e.terms[i].coef.Rat().Denom()
		g := new(big.Int).GCD(nil, nil, l, d)
		l.Div(l, g)
		l.Mul(l, d)
	}
	return l
}

// String renders the polynomial canonically: terms in monomial-key
// order, coefficients as integers or fractions. The rendering doubles
// as the expression's canonical fingerprint (the prover's memo key) and
// is cached on first use.
func (e *Expr) String() string {
	if e.str != "" {
		return e.str
	}
	if len(e.terms) == 0 {
		e.str = "0"
		return e.str
	}
	var stack [96]byte
	b := stack[:0]
	for i := range e.terms {
		t := &e.terms[i]
		if t.coef.Sign() < 0 {
			b = append(b, '-')
		} else if i > 0 {
			b = append(b, '+')
		}
		switch {
		case t.mk == "":
			b = t.coef.appendAbs(b)
		case t.coef.absIsOne():
			b = append(b, t.mk...)
		default:
			b = append(t.coef.appendAbs(b), '*')
			b = append(b, t.mk...)
		}
	}
	e.str = string(b)
	return e.str
}
