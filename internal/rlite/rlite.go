// Package rlite implements an embedded R-subset interpreter, the
// stand-in for linking libR into the runtime (paper §III-C). As with
// Python, the paper's mechanism — the interpreter as an in-process
// library behind a Tcl extension, exposed to Swift as r(code, expr) —
// is reproduced; the evaluator here covers the vectorised core of R used
// in analysis glue: numeric/character/logical vectors with recycling,
// `<-` assignment, functions, control flow, and a statistics-oriented
// builtin set (c, seq, sum, mean, sd, sapply, paste, ...).
package rlite

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tNum
	tStr
	tName
	tOp
	tNewline
)

type token struct {
	kind tokKind
	text string
	line int
}

var rKeywords = map[string]bool{
	"if": true, "else": true, "for": true, "while": true, "in": true,
	"function": true, "return": true, "break": true, "next": true,
	"TRUE": true, "FALSE": true, "NULL": true, "NA": true,
}

func lex(src string) ([]token, error) {
	var toks []token
	i, n, line := 0, len(src), 1
	depth := 0 // () and [] nesting suppresses newline tokens
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			if depth == 0 {
				toks = append(toks, token{kind: tNewline, line: line})
			}
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '"' || c == '\'':
			quote := c
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if src[i] == '\\' && i+1 < n {
					switch src[i+1] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					case '\\':
						b.WriteByte('\\')
					case '"':
						b.WriteByte('"')
					case '\'':
						b.WriteByte('\'')
					default:
						b.WriteByte(src[i+1])
					}
					i += 2
					continue
				}
				if src[i] == quote {
					closed = true
					i++
					break
				}
				if src[i] == '\n' {
					line++
				}
				b.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("rlite: line %d: unterminated string", line)
			}
			toks = append(toks, token{kind: tStr, text: b.String(), line: line})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			for i < n {
				d := src[i]
				if (d >= '0' && d <= '9') || d == '.' {
					i++
				} else if d == 'e' || d == 'E' {
					i++
					if i < n && (src[i] == '+' || src[i] == '-') {
						i++
					}
				} else {
					break
				}
			}
			toks = append(toks, token{kind: tNum, text: src[start:i], line: line})
		case isRNameStart(c):
			start := i
			for i < n && isRNamePart(src[i]) {
				i++
			}
			toks = append(toks, token{kind: tName, text: src[start:i], line: line})
		default:
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch {
			case two == "<-" || two == "==" || two == "!=" || two == "<=" || two == ">=" ||
				two == "&&" || two == "||" || two == "%%":
				toks = append(toks, token{kind: tOp, text: two, line: line})
				i += 2
			case strings.HasPrefix(src[i:], "%/%"):
				toks = append(toks, token{kind: tOp, text: "%/%", line: line})
				i += 3
			default:
				switch c {
				case '(', '[':
					depth++
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				case ')', ']':
					depth--
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				case '{', '}', '+', '-', '*', '/', '^', '<', '>', '!', '&', '|',
					'=', ',', ';', ':', '$':
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				default:
					return nil, fmt.Errorf("rlite: line %d: unexpected character %q", line, c)
				}
			}
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}

func isRNameStart(c byte) bool {
	return c == '.' || c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isRNamePart(c byte) bool {
	return isRNameStart(c) || (c >= '0' && c <= '9')
}

// ---- AST ----

type rexpr interface{ rexprNode() }

type rNum struct{ v float64 }
type rStr struct{ v string }
type rBool struct{ v bool }
type rNull struct{}
type rName struct{ name string }
type rBin struct {
	op   string
	l, r rexpr
}
type rUn struct {
	op string
	x  rexpr
}
type rCall struct {
	fn   rexpr
	args []rarg
}
type rarg struct {
	name string // named argument, "" if positional
	val  rexpr
}
type rIndex struct {
	obj rexpr
	idx rexpr
}
type rFuncLit struct {
	params []rparam
	body   rexpr
}
type rparam struct {
	name string
	def  rexpr // default, may be nil
}
type rBlock struct{ stmts []rexpr }
type rIf struct {
	cond      rexpr
	then, els rexpr // els may be nil
}
type rFor struct {
	v    string
	seq  rexpr
	body rexpr
}
type rWhile struct {
	cond rexpr
	body rexpr
}
type rAssign struct {
	target rexpr // rName or rIndex
	value  rexpr
}
type rReturn struct{ x rexpr }
type rBreak struct{}
type rNext struct{}

func (*rNum) rexprNode()     {}
func (*rStr) rexprNode()     {}
func (*rBool) rexprNode()    {}
func (*rNull) rexprNode()    {}
func (*rName) rexprNode()    {}
func (*rBin) rexprNode()     {}
func (*rUn) rexprNode()      {}
func (*rCall) rexprNode()    {}
func (*rIndex) rexprNode()   {}
func (*rFuncLit) rexprNode() {}
func (*rBlock) rexprNode()   {}
func (*rIf) rexprNode()      {}
func (*rFor) rexprNode()     {}
func (*rWhile) rexprNode()   {}
func (*rAssign) rexprNode()  {}
func (*rReturn) rexprNode()  {}
func (*rBreak) rexprNode()   {}
func (*rNext) rexprNode()    {}

// ---- parser ----

type rparser struct {
	toks []token
	pos  int
}

func parseR(src string) ([]rexpr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &rparser{toks: toks}
	var prog []rexpr
	for {
		p.skipSeps()
		if p.cur().kind == tEOF {
			return prog, nil
		}
		e, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog = append(prog, e)
	}
}

func (p *rparser) cur() token { return p.toks[p.pos] }

func (p *rparser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *rparser) eat(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *rparser) expect(text string) error {
	if p.cur().text != text {
		return fmt.Errorf("rlite: line %d: expected %q, found %q", p.cur().line, text, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *rparser) skipSeps() {
	for p.at(tNewline, "") || p.at(tOp, ";") {
		p.pos++
	}
}

// skipNewlines skips newline tokens only (used where a construct may
// continue on the next line).
func (p *rparser) skipNewlines() {
	for p.at(tNewline, "") {
		p.pos++
	}
}

func (p *rparser) statement() (rexpr, error) {
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	// Assignment forms: name <- value, name = value, idx <- value.
	if p.at(tOp, "<-") || p.at(tOp, "=") {
		p.pos++
		p.skipNewlines()
		v, err := p.statement()
		if err != nil {
			return nil, err
		}
		switch e.(type) {
		case *rName, *rIndex:
			return &rAssign{target: e, value: v}, nil
		}
		return nil, fmt.Errorf("rlite: invalid assignment target")
	}
	return e, nil
}

func (p *rparser) expr() (rexpr, error) { return p.orExpr() }

func (p *rparser) binLevel(ops []string, next func() (rexpr, error)) (rexpr, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(tOp, op) {
				p.pos++
				p.skipNewlines()
				r, err := next()
				if err != nil {
					return nil, err
				}
				l = &rBin{op: op, l: l, r: r}
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
	}
}

func (p *rparser) orExpr() (rexpr, error) {
	return p.binLevel([]string{"||", "|"}, p.andExpr)
}

func (p *rparser) andExpr() (rexpr, error) {
	return p.binLevel([]string{"&&", "&"}, p.notExpr)
}

func (p *rparser) notExpr() (rexpr, error) {
	if p.at(tOp, "!") {
		p.pos++
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &rUn{op: "!", x: x}, nil
	}
	return p.cmpExpr()
}

func (p *rparser) cmpExpr() (rexpr, error) {
	return p.binLevel([]string{"==", "!=", "<=", ">=", "<", ">"}, p.rangeExpr)
}

func (p *rparser) rangeExpr() (rexpr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.at(tOp, ":") {
		p.pos++
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &rBin{op: ":", l: l, r: r}, nil
	}
	return l, nil
}

func (p *rparser) addExpr() (rexpr, error) {
	return p.binLevel([]string{"+", "-"}, p.mulExpr)
}

func (p *rparser) mulExpr() (rexpr, error) {
	return p.binLevel([]string{"*", "/", "%%", "%/%"}, p.unaryExpr)
}

func (p *rparser) unaryExpr() (rexpr, error) {
	if p.at(tOp, "-") {
		p.pos++
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &rUn{op: "-", x: x}, nil
	}
	if p.at(tOp, "+") {
		p.pos++
		return p.unaryExpr()
	}
	return p.powExpr()
}

func (p *rparser) powExpr() (rexpr, error) {
	l, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.at(tOp, "^") {
		p.pos++
		r, err := p.unaryExpr() // right assoc
		if err != nil {
			return nil, err
		}
		return &rBin{op: "^", l: l, r: r}, nil
	}
	return l, nil
}

func (p *rparser) postfix() (rexpr, error) {
	x, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tOp, "("):
			p.pos++
			call := &rCall{fn: x}
			p.skipNewlines()
			for !p.at(tOp, ")") {
				// Named argument? name = expr (but == is comparison).
				name := ""
				if p.cur().kind == tName && p.toks[p.pos+1].kind == tOp && p.toks[p.pos+1].text == "=" {
					name = p.cur().text
					p.pos += 2
				}
				a, err := p.statement()
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, rarg{name: name, val: a})
				p.skipNewlines()
				if !p.eat(tOp, ",") {
					break
				}
				p.skipNewlines()
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			x = call
		case p.at(tOp, "["):
			p.pos++
			idx, err := p.statement()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &rIndex{obj: x, idx: idx}
		default:
			return x, nil
		}
	}
}

func (p *rparser) atom() (rexpr, error) {
	t := p.cur()
	switch {
	case t.kind == tNum:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("rlite: line %d: bad number %q", t.line, t.text)
		}
		return &rNum{v: v}, nil
	case t.kind == tStr:
		p.pos++
		return &rStr{v: t.text}, nil
	case t.kind == tName:
		switch t.text {
		case "TRUE", "T":
			p.pos++
			return &rBool{v: true}, nil
		case "FALSE", "F":
			p.pos++
			return &rBool{v: false}, nil
		case "NULL", "NA":
			p.pos++
			return &rNull{}, nil
		case "if":
			return p.ifExpr()
		case "for":
			return p.forExpr()
		case "while":
			return p.whileExpr()
		case "function":
			return p.funcLit()
		case "return":
			p.pos++
			if p.eat(tOp, "(") {
				if p.eat(tOp, ")") {
					return &rReturn{x: &rNull{}}, nil
				}
				x, err := p.statement()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return &rReturn{x: x}, nil
			}
			return &rReturn{x: &rNull{}}, nil
		case "break":
			p.pos++
			return &rBreak{}, nil
		case "next":
			p.pos++
			return &rNext{}, nil
		}
		p.pos++
		return &rName{name: t.text}, nil
	case t.kind == tOp && t.text == "(":
		p.pos++
		p.skipNewlines()
		x, err := p.statement()
		if err != nil {
			return nil, err
		}
		p.skipNewlines()
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.kind == tOp && t.text == "{":
		return p.block()
	}
	return nil, fmt.Errorf("rlite: line %d: unexpected token %q", t.line, t.text)
}

func (p *rparser) block() (rexpr, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &rBlock{}
	for {
		p.skipSeps()
		if p.at(tOp, "}") {
			p.pos++
			return b, nil
		}
		if p.cur().kind == tEOF {
			return nil, fmt.Errorf("rlite: unexpected end of input in block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.stmts = append(b.stmts, s)
	}
}

func (p *rparser) ifExpr() (rexpr, error) {
	p.pos++ // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.statement()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.skipNewlines()
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	node := &rIf{cond: cond, then: then}
	// Allow else on the same or following line.
	save := p.pos
	p.skipNewlines()
	if p.at(tName, "else") {
		p.pos++
		p.skipNewlines()
		node.els, err = p.statement()
		if err != nil {
			return nil, err
		}
	} else {
		p.pos = save
	}
	return node, nil
}

func (p *rparser) forExpr() (rexpr, error) {
	p.pos++ // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if p.cur().kind != tName {
		return nil, fmt.Errorf("rlite: line %d: expected loop variable", p.cur().line)
	}
	v := p.cur().text
	p.pos++
	if !p.eat(tName, "in") {
		return nil, fmt.Errorf("rlite: line %d: expected 'in'", p.cur().line)
	}
	seq, err := p.statement()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.skipNewlines()
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &rFor{v: v, seq: seq, body: body}, nil
}

func (p *rparser) whileExpr() (rexpr, error) {
	p.pos++ // while
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.statement()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.skipNewlines()
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &rWhile{cond: cond, body: body}, nil
}

func (p *rparser) funcLit() (rexpr, error) {
	p.pos++ // function
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := &rFuncLit{}
	for !p.at(tOp, ")") {
		if p.cur().kind != tName {
			return nil, fmt.Errorf("rlite: line %d: expected parameter name", p.cur().line)
		}
		prm := rparam{name: p.cur().text}
		p.pos++
		if p.eat(tOp, "=") {
			def, err := p.expr()
			if err != nil {
				return nil, err
			}
			prm.def = def
		}
		f.params = append(f.params, prm)
		if !p.eat(tOp, ",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.skipNewlines()
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	f.body = body
	return f, nil
}
