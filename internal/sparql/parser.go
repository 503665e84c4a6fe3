package sparql

import (
	"maps"
	"regexp"
	"strconv"
	"strings"

	"s2rdf/internal/rdf"
)

// Parse parses a SPARQL SELECT query. The common WatDiv prefixes (wsdbm,
// sorg, gr, ...) are predeclared; PREFIX declarations in the query extend
// or override them in a copy of that shared table, made only for queries
// that declare one.
func Parse(src string) (*Query, error) {
	p := &parser{lex: newLexer(src), src: src, prefixes: rdf.CommonPrefixes()}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; for tests and fixed workloads.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	lex      *lexer
	src      string
	tok      token
	prefixes rdf.Prefixes
	depth    int // nesting levels entered, see enter
}

// maxDepth bounds how deeply a query nests groups, brackets and negations.
// The parser recurses once per level, so without a bound only the query's
// length would bound its stack: a 1 MiB query can nest half a million
// levels, deep enough to exhaust the goroutine stack, which is fatal.
const maxDepth = 256

// enter opens one nesting level — a '{' group, a '(' bracket or function
// call, or a '!' negation — failing past maxDepth; leave closes it.
func (p *parser) enter() error {
	if p.depth == maxDepth {
		return p.errorf("query nests deeper than %d levels of groups, brackets and negations", maxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return p.lex.errorf(p.tok.pos, format, args...)
}

// expectIdent consumes a case-insensitive keyword.
func (p *parser) acceptIdent(kw string) bool {
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind == tokPunct && p.tok.text == s {
		return p.advance()
	}
	if p.tok.kind == tokOp && p.tok.text == s {
		return p.advance()
	}
	return p.errorf("expected %q, got %s", s, p.tok)
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	// Prologue. The predeclared table is shared, so the first PREFIX
	// declaration switches to a private copy.
	cloned := false
	for p.acceptIdent("PREFIX") {
		if p.tok.kind != tokPName {
			return nil, p.errorf("expected prefix name, got %s", p.tok)
		}
		name := strings.TrimSuffix(p.tok.text, ":")
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIRI {
			return nil, p.errorf("expected IRI after PREFIX %s:", name)
		}
		if !cloned {
			p.prefixes, cloned = maps.Clone(p.prefixes), true
		}
		p.prefixes[name] = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	q.Prefixes = p.prefixes
	switch {
	case p.acceptIdent("SELECT"):
		if p.acceptIdent("DISTINCT") {
			q.Distinct = true
		} else {
			p.acceptIdent("REDUCED") // treated as plain SELECT
		}
		// Projection: *, or a mix of ?var and (AGG(...) AS ?alias) items.
		if p.tok.kind == tokOp && p.tok.text == "*" {
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			for {
				if p.tok.kind == tokVar {
					q.Vars = append(q.Vars, p.tok.text)
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				if p.tok.kind == tokPunct && p.tok.text == "(" {
					if err := p.advance(); err != nil {
						return nil, err
					}
					agg, err := p.parseAggProjection()
					if err != nil {
						return nil, err
					}
					q.Aggregates = append(q.Aggregates, agg)
					continue
				}
				break
			}
			if len(q.Vars) == 0 && len(q.Aggregates) == 0 {
				return nil, p.errorf("expected projection, got %s", p.tok)
			}
		}
	case p.acceptIdent("ASK"):
		q.Ask = true
	default:
		return nil, p.errorf("expected SELECT or ASK, got %s", p.tok)
	}
	p.acceptIdent("WHERE")
	group, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = group

	// Solution modifiers.
	if p.acceptIdent("GROUP") {
		if !p.acceptIdent("BY") {
			return nil, p.errorf("expected BY after GROUP")
		}
		for p.tok.kind == tokVar {
			q.GroupBy = append(q.GroupBy, p.tok.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if len(q.GroupBy) == 0 {
			return nil, p.errorf("expected grouping variable")
		}
	}
	if err := q.validateAggregates(); err != nil {
		return nil, err
	}
	if p.acceptIdent("ORDER") {
		if !p.acceptIdent("BY") {
			return nil, p.errorf("expected BY after ORDER")
		}
		for {
			desc := false
			if p.acceptIdent("DESC") {
				desc = true
			} else {
				p.acceptIdent("ASC")
			}
			if p.tok.kind == tokPunct && p.tok.text == "(" {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.tok.kind != tokVar {
					return nil, p.errorf("expected variable in ORDER BY")
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: p.tok.text, Desc: desc})
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			} else if p.tok.kind == tokVar {
				q.OrderBy = append(q.OrderBy, OrderKey{Var: p.tok.text, Desc: desc})
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else {
				break
			}
			if p.tok.kind != tokVar && !(p.tok.kind == tokIdent &&
				(strings.EqualFold(p.tok.text, "ASC") || strings.EqualFold(p.tok.text, "DESC"))) {
				break
			}
		}
	}
	for {
		switch {
		case p.acceptIdent("LIMIT"):
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Limit = n
		case p.acceptIdent("OFFSET"):
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Offset = n
		default:
			if p.tok.kind != tokEOF {
				return nil, p.errorf("unexpected trailing %s", p.tok)
			}
			return q, nil
		}
	}
}

// parseInt reads the count of a LIMIT or OFFSET clause: the grammar's
// INTEGER, digits only, and within int's range. A sign or a decimal point
// is a syntax error, not a count that means "none" or a truncated one.
func (p *parser) parseInt() (int, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected number, got %s", p.tok)
	}
	n, err := strconv.Atoi(p.tok.text)
	if err != nil || strings.HasPrefix(p.tok.text, "-") {
		return 0, p.errorf("bad integer %q (LIMIT and OFFSET take a non-negative integer)", p.tok.text)
	}
	return n, p.advance()
}

// parseGroup parses a { ... } group graph pattern.
func (p *parser) parseGroup() (*Group, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &Group{}
	for {
		switch {
		case p.tok.kind == tokPunct && p.tok.text == "}":
			return g, p.advance()

		case p.tok.kind == tokEOF:
			return nil, p.errorf("unexpected end of query inside group")

		case p.acceptIdent("FILTER"):
			expr, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, expr)
			p.acceptDot()

		case p.acceptIdent("OPTIONAL"):
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Optionals = append(g.Optionals, sub)
			p.acceptDot()

		case p.tok.kind == tokPunct && p.tok.text == "{":
			// Group or UNION chain.
			first, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "UNION") {
				u := &Union{Alternatives: []*Group{first}}
				for p.acceptIdent("UNION") {
					alt, err := p.parseGroup()
					if err != nil {
						return nil, err
					}
					u.Alternatives = append(u.Alternatives, alt)
				}
				g.Unions = append(g.Unions, u)
			} else {
				// Plain nested group: merge its contents.
				g.Triples = append(g.Triples, first.Triples...)
				g.Filters = append(g.Filters, first.Filters...)
				g.Optionals = append(g.Optionals, first.Optionals...)
				g.Unions = append(g.Unions, first.Unions...)
			}
			p.acceptDot()

		default:
			if err := p.parseTriplesSameSubject(g); err != nil {
				return nil, err
			}
			if !p.acceptDot() {
				// After a triple, only '.' or '}' (or FILTER/OPTIONAL
				// keywords) may follow.
				if p.tok.kind == tokPunct && p.tok.text == "}" {
					continue
				}
				if p.tok.kind == tokIdent {
					continue
				}
				return nil, p.errorf("expected '.' or '}', got %s", p.tok)
			}
		}
	}
}

func (p *parser) acceptDot() bool {
	if p.tok.kind == tokPunct && p.tok.text == "." {
		p.advance()
		return true
	}
	return false
}

// parseTriplesSameSubject parses subject (predicate object (, object)*)
// (; predicate object...)* into g.Triples.
func (p *parser) parseTriplesSameSubject(g *Group) error {
	s, err := p.parseNode(false)
	if err != nil {
		return err
	}
	for {
		pred, err := p.parseNode(true)
		if err != nil {
			return err
		}
		for {
			o, err := p.parseNode(false)
			if err != nil {
				return err
			}
			g.Triples = append(g.Triples, TriplePattern{S: s, P: pred, O: o})
			if p.tok.kind == tokPunct && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if p.tok.kind == tokPunct && p.tok.text == ";" {
			if err := p.advance(); err != nil {
				return err
			}
			// Allow trailing ';' before '.' or '}'.
			if p.tok.kind == tokPunct && (p.tok.text == "." || p.tok.text == "}") {
				return nil
			}
			continue
		}
		return nil
	}
}

// parseNode parses one triple-pattern position.
func (p *parser) parseNode(predicate bool) (Node, error) {
	tok := p.tok
	switch tok.kind {
	case tokVar:
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		return Variable(tok.text), nil
	case tokIRI:
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		return Bound(rdf.NewIRI(tok.text)), nil
	case tokPName:
		if strings.HasPrefix(tok.text, "_:") {
			if err := p.advance(); err != nil {
				return Node{}, err
			}
			return Bound(rdf.Term(tok.text)), nil
		}
		term, ok := p.prefixes.Expand(tok.text)
		if !ok {
			return Node{}, p.errorf("unknown prefix in %q", tok.text)
		}
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		return Bound(term), nil
	case tokString:
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		return Bound(rdf.Term(tok.text)), nil
	case tokNumber:
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		return Bound(numberTerm(tok.text)), nil
	case tokIdent:
		if tok.text == "a" && predicate {
			if err := p.advance(); err != nil {
				return Node{}, err
			}
			return Bound(rdf.NewIRI(rdf.RDFType)), nil
		}
		if strings.EqualFold(tok.text, "true") || strings.EqualFold(tok.text, "false") {
			if err := p.advance(); err != nil {
				return Node{}, err
			}
			return Bound(rdf.NewTypedLiteral(strings.ToLower(tok.text), rdf.XSDBoolean)), nil
		}
	}
	return Node{}, p.errorf("expected term or variable, got %s", tok)
}

func numberTerm(text string) rdf.Term {
	if strings.Contains(text, ".") {
		return rdf.NewTypedLiteral(text, rdf.XSDDecimal)
	}
	return rdf.NewTypedLiteral(text, rdf.XSDInteger)
}

// --- filter expressions ---

// parseConstraint parses FILTER's argument: a bracketted expression or a
// builtin call.
func (p *parser) parseConstraint() (Expression, error) {
	start := p.tok.pos
	ev, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	end := p.tok.pos
	if end > len(p.src) {
		end = len(p.src)
	}
	repr := strings.TrimSpace(p.src[start:min(end, len(p.src))])
	return newExpr(ev, repr), nil
}

func (p *parser) parseOr() (evaluator, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = logicEval{op: "||", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (evaluator, error) {
	l, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		l = logicEval{op: "&&", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseRel() (evaluator, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp {
		switch p.tok.text {
		case "=", "!=", "<", "<=", ">", ">=":
			op := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return cmpEval{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (evaluator, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text[0]
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = arithEval{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseMul() (evaluator, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := p.tok.text[0]
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = arithEval{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (evaluator, error) {
	if p.tok.kind == tokOp && p.tok.text == "!" {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return logicEval{op: "!", l: e}, nil
	}
	return p.parsePrimary()
}

var builtins = map[string]int{
	"bound": 1, "isiri": 1, "isuri": 1, "isliteral": 1, "isblank": 1,
	"str": 1, "lang": 1, "regex": 2,
}

func (p *parser) parsePrimary() (evaluator, error) {
	tok := p.tok
	switch tok.kind {
	case tokPunct:
		if tok.text == "(" {
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokVar:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return varEval{name: tok.text}, nil
	case tokNumber:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return constEval{v: termValue(numberTerm(tok.text))}, nil
	case tokString:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return constEval{v: termValue(rdf.Term(tok.text))}, nil
	case tokIRI:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return constEval{v: value{kind: vTerm, term: rdf.NewIRI(tok.text)}}, nil
	case tokPName:
		term, ok := p.prefixes.Expand(tok.text)
		if !ok {
			return nil, p.errorf("unknown prefix in %q", tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return constEval{v: value{kind: vTerm, term: term}}, nil
	case tokIdent:
		name := strings.ToLower(tok.text)
		if strings.EqualFold(name, "true") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return constEval{v: value{kind: vBool, b: true}}, nil
		}
		if strings.EqualFold(name, "false") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return constEval{v: value{kind: vBool, b: false}}, nil
		}
		if nargs, ok := builtins[name]; ok {
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var args []evaluator
			for i := 0; i < nargs; i++ {
				if i > 0 {
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			// regex allows an optional flags argument; accept and ignore.
			if name == "regex" && p.tok.kind == tokPunct && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if _, err := p.parseOr(); err != nil {
					return nil, err
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			f := funcEval{name: name, args: args}
			if name == "regex" {
				if c, ok := args[1].(constEval); ok && c.v.term.IsLiteral() {
					re, err := regexp.Compile(c.v.term.Value())
					if err != nil {
						return nil, p.errorf("bad regex: %v", err)
					}
					f.re = re
				}
			}
			return f, nil
		}
	}
	return nil, p.errorf("unexpected token %s in expression", tok)
}
