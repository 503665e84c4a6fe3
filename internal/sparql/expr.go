package sparql

import (
	"fmt"
	"regexp"

	"s2rdf/internal/rdf"
)

// Binding maps variable names to RDF terms for filter evaluation. A missing
// entry means the variable is unbound (possible under OPTIONAL).
type Binding map[string]rdf.Term

// Expression is a SPARQL filter expression.
type Expression interface {
	// Eval returns the effective boolean value of the expression under b.
	// Type errors yield false (SPARQL's error-as-false semantics for
	// FILTER).
	Eval(b Binding) bool
	// Vars returns the variables the expression references.
	Vars() []string
	fmt.Stringer
}

// value is the intermediate result of evaluating a sub-expression.
type value struct {
	kind valueKind
	term rdf.Term
	num  float64
	b    bool
}

type valueKind int

const (
	vErr valueKind = iota
	vTerm
	vNum
	vBool
)

func termValue(t rdf.Term) value {
	if n, ok := t.Numeric(); ok {
		return value{kind: vNum, num: n, term: t}
	}
	return value{kind: vTerm, term: t}
}

func (v value) effectiveBool() bool {
	switch v.kind {
	case vBool:
		return v.b
	case vNum:
		return v.num != 0
	case vTerm:
		return v.term.IsLiteral() && v.term.Value() != ""
	}
	return false
}

type evaluator interface {
	eval(b Binding) value
}

// exprNode wraps an evaluator into the Expression interface.
type exprNode struct {
	ev   evaluator
	vars []string
	repr string
}

func (e *exprNode) Eval(b Binding) bool { return e.ev.eval(b).effectiveBool() }
func (e *exprNode) Vars() []string      { return e.vars }
func (e *exprNode) String() string      { return e.repr }

// --- evaluator implementations ---

type varEval struct{ name string }

func (v varEval) eval(b Binding) value {
	t, ok := b[v.name]
	if !ok {
		return value{kind: vErr}
	}
	return termValue(t)
}

type constEval struct{ v value }

func (c constEval) eval(Binding) value { return c.v }

type cmpEval struct {
	op   string
	l, r evaluator
}

func (c cmpEval) eval(b Binding) value {
	lv, rv := c.l.eval(b), c.r.eval(b)
	if lv.kind == vErr || rv.kind == vErr {
		return value{kind: vErr}
	}
	// Numeric comparison when both sides are numeric.
	if lv.kind == vNum && rv.kind == vNum {
		return value{kind: vBool, b: cmpFloat(c.op, lv.num, rv.num)}
	}
	// Boolean equality.
	if lv.kind == vBool && rv.kind == vBool {
		switch c.op {
		case "=":
			return value{kind: vBool, b: lv.b == rv.b}
		case "!=":
			return value{kind: vBool, b: lv.b != rv.b}
		}
		return value{kind: vErr}
	}
	// Term comparison: equality on full term, ordering on lexical value.
	lt, rt := lv.term, rv.term
	switch c.op {
	case "=":
		return value{kind: vBool, b: lt == rt}
	case "!=":
		return value{kind: vBool, b: lt != rt}
	}
	if lt.IsLiteral() && rt.IsLiteral() {
		return value{kind: vBool, b: cmpString(c.op, lt.Value(), rt.Value())}
	}
	return value{kind: vErr}
}

func cmpFloat(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func cmpString(op, a, b string) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

type logicEval struct {
	op   string // "&&", "||", "!"
	l, r evaluator
}

func (e logicEval) eval(b Binding) value {
	switch e.op {
	case "!":
		v := e.l.eval(b)
		if v.kind == vErr {
			return v
		}
		return value{kind: vBool, b: !v.effectiveBool()}
	case "&&":
		lv, rv := e.l.eval(b), e.r.eval(b)
		// SPARQL three-valued logic: false && error = false.
		if lv.kind != vErr && !lv.effectiveBool() {
			return value{kind: vBool, b: false}
		}
		if rv.kind != vErr && !rv.effectiveBool() {
			return value{kind: vBool, b: false}
		}
		if lv.kind == vErr || rv.kind == vErr {
			return value{kind: vErr}
		}
		return value{kind: vBool, b: true}
	case "||":
		lv, rv := e.l.eval(b), e.r.eval(b)
		if lv.kind != vErr && lv.effectiveBool() {
			return value{kind: vBool, b: true}
		}
		if rv.kind != vErr && rv.effectiveBool() {
			return value{kind: vBool, b: true}
		}
		if lv.kind == vErr || rv.kind == vErr {
			return value{kind: vErr}
		}
		return value{kind: vBool, b: false}
	}
	return value{kind: vErr}
}

type funcEval struct {
	name string
	args []evaluator
	re   *regexp.Regexp // compiled pattern for regex()
}

func (f funcEval) eval(b Binding) value {
	switch f.name {
	case "bound":
		v, ok := f.args[0].(varEval)
		if !ok {
			return value{kind: vErr}
		}
		_, bound := b[v.name]
		return value{kind: vBool, b: bound}
	case "isiri", "isuri":
		v := f.args[0].eval(b)
		if v.kind == vErr {
			return v
		}
		return value{kind: vBool, b: v.term.IsIRI()}
	case "isliteral":
		v := f.args[0].eval(b)
		if v.kind == vErr {
			return v
		}
		return value{kind: vBool, b: v.term != "" && v.term.IsLiteral()}
	case "isblank":
		v := f.args[0].eval(b)
		if v.kind == vErr {
			return v
		}
		return value{kind: vBool, b: v.term != "" && v.term.IsBlank()}
	case "str":
		v := f.args[0].eval(b)
		if v.kind == vErr {
			return v
		}
		return value{kind: vTerm, term: rdf.NewLiteral(v.term.Value())}
	case "lang":
		v := f.args[0].eval(b)
		if v.kind == vErr {
			return v
		}
		return value{kind: vTerm, term: rdf.NewLiteral(v.term.Lang())}
	case "regex":
		v := f.args[0].eval(b)
		if v.kind == vErr || f.re == nil {
			return value{kind: vErr}
		}
		return value{kind: vBool, b: f.re.MatchString(v.term.Value())}
	}
	return value{kind: vErr}
}

type arithEval struct {
	op   byte // + - * /
	l, r evaluator
}

func (a arithEval) eval(b Binding) value {
	lv, rv := a.l.eval(b), a.r.eval(b)
	if lv.kind != vNum || rv.kind != vNum {
		return value{kind: vErr}
	}
	switch a.op {
	case '+':
		return value{kind: vNum, num: lv.num + rv.num}
	case '-':
		return value{kind: vNum, num: lv.num - rv.num}
	case '*':
		return value{kind: vNum, num: lv.num * rv.num}
	case '/':
		if rv.num == 0 {
			return value{kind: vErr}
		}
		return value{kind: vNum, num: lv.num / rv.num}
	}
	return value{kind: vErr}
}

func collectVars(evs ...evaluator) []string {
	var out []string
	var walk func(e evaluator)
	walk = func(e evaluator) {
		switch v := e.(type) {
		case varEval:
			if indexOf(out, v.name) < 0 {
				out = append(out, v.name)
			}
		case cmpEval:
			walk(v.l)
			walk(v.r)
		case logicEval:
			walk(v.l)
			if v.r != nil {
				walk(v.r)
			}
		case arithEval:
			walk(v.l)
			walk(v.r)
		case funcEval:
			for _, a := range v.args {
				walk(a)
			}
		}
	}
	for _, e := range evs {
		if e != nil {
			walk(e)
		}
	}
	return out
}

func newExpr(ev evaluator, repr string) Expression {
	return &exprNode{ev: ev, vars: collectVars(ev), repr: repr}
}
