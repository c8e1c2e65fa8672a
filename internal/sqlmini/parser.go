package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement. The Statement's params are the
// text's own literals.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks, src: src}
	ast, err := p.statement()
	if err != nil {
		return Statement{}, err
	}
	end := p.i
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return Statement{}, p.errf("unexpected %q after statement", p.peek().text)
	}
	sh := &Shape{AST: ast, NumLiterals: len(p.params), Tables: footprint(ast)}
	if _, ok := ast.(*SelectStmt); ok {
		sh.key = p.key(end)
	}
	return Statement{Shape: sh, Params: p.params}, nil
}

type parser struct {
	toks []token
	i    int
	src  string
	// params collects the literal values in textual order; each becomes
	// a Lit naming its slot. spans[i] is the tokens params[i] was read
	// from, [first, end).
	params []Value
	spans  [][2]int
}

// lit records a literal value, read from the tokens since toks[from],
// and returns the node for its slot.
func (p *parser) lit(v Value, from int) Expr {
	p.params = append(p.params, v)
	p.spans = append(p.spans, [2]int{from, p.i})
	return &Lit{Slot: len(p.params) - 1}
}

// key renders the statement's first end tokens with each literal's
// tokens written as one "?": the plan cache's key. Tokens are
// normalized (keywords upper-cased, identifiers lower-cased) and contain
// no space, so two texts share a key exactly when they differ only in
// literal values, whitespace, comments or letter case — and then parse
// to equal trees. LIMIT's count is not a literal and stays as written.
func (p *parser) key(end int) string {
	var b strings.Builder
	b.Grow(len(p.src) + end) // a bound: no token is longer than its text, and end spaces at most
	lits := p.spans
	for i := 0; i < end; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		if len(lits) > 0 && i == lits[0][0] {
			b.WriteByte('?')
			i = lits[0][1] - 1
			lits = lits[1:]
			continue
		}
		b.WriteString(p.toks[i].text)
	}
	return b.String()
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlmini: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) accept(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.accept(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	}
	return nil, p.errf("unsupported statement %q", t.text)
}

func (p *parser) selectStmt() (Stmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.accept("DISTINCT")
	for {
		if p.acceptSym("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.peek().kind == tokIdent {
				item.Alias = p.next().text
			}
			st.Items = append(st.Items, item)
		}
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = tbl
	if p.peek().kind == tokIdent {
		st.Alias = p.next().text
	}
	for p.accept("INNER") || p.peek().kind == tokKeyword && p.peek().text == "JOIN" {
		if err := p.expectKw("JOIN"); err != nil {
			return nil, err
		}
		jt, err := p.ident()
		if err != nil {
			return nil, err
		}
		j := JoinClause{Table: jt}
		if p.peek().kind == tokIdent {
			j.Alias = p.next().text
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		on, err := p.expr()
		if err != nil {
			return nil, err
		}
		j.On = on
		st.Joins = append(st.Joins, j)
	}
	if p.accept("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.accept("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.accept("HAVING") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.accept("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.accept("DESC") {
				it.Desc = true
			} else {
				p.accept("ASC")
			}
			st.OrderBy = append(st.OrderBy, it)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		t := p.peek()
		if t.kind != tokInt {
			return nil, p.errf("expected integer after LIMIT")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: tbl}
	if p.acceptSym("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: tbl}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, struct {
			Column string
			Expr   Expr
		}{c, e})
		if !p.acceptSym(",") {
			break
		}
	}
	if p.accept("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: tbl}
	if p.accept("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) createStmt() (Stmt, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Table: tbl}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		col := Column{Name: name}
		t := p.peek()
		if t.kind != tokKeyword {
			return nil, p.errf("expected column type, got %q", t.text)
		}
		switch t.text {
		case "INT", "INTEGER":
			col.Type = KindInt
		case "FLOAT", "REAL":
			col.Type = KindFloat
		case "TEXT", "VARCHAR":
			col.Type = KindText
		default:
			return nil, p.errf("unsupported column type %q", t.text)
		}
		p.next()
		// VARCHAR(n): accept and ignore the length.
		if p.acceptSym("(") {
			if p.peek().kind != tokInt {
				return nil, p.errf("expected length in type")
			}
			p.next()
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		}
		if p.accept("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		}
		st.Columns = append(st.Columns, col)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) dropStmt() (Stmt, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: tbl}, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := addExpr ((=|<>|!=|<|<=|>|>=|LIKE) addExpr
//	         | [NOT] BETWEEN addExpr AND addExpr
//	         | [NOT] IN (expr, ...)
//	         | IS [NOT] NULL)?
//	addExpr := mulExpr ((+|-) mulExpr)*
//	mulExpr := unary ((*|/) unary)*
//	unary   := - number | - unary | primary
//	primary := literal | agg | colref | ( expr )
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "NOT", E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		// lookahead for NOT BETWEEN / NOT IN / NOT LIKE
		save := p.i
		p.next()
		switch p.peek().text {
		case "BETWEEN", "IN", "LIKE":
			negate = true
		default:
			p.i = save
			return l, nil
		}
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<", "<=", ">", ">=", "<>", "!=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			return &BinOp{Op: op, L: l, R: r}, nil
		}
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "LIKE":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			e := Expr(&BinOp{Op: "LIKE", L: l, R: r})
			if negate {
				e = &UnOp{Op: "NOT", E: e}
			}
			return e, nil
		case "BETWEEN":
			p.next()
			lo, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &Between{E: l, Lo: lo, Hi: hi, Negate: negate}, nil
		case "IN":
			p.next()
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.acceptSym(",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &InList{E: l, List: list, Negate: negate}, nil
		case "IS":
			p.next()
			neg := p.accept("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			return &IsNull{E: l, Negate: neg}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unary() (Expr, error) {
	if p.acceptSym("-") {
		// A minus directly on a number is that number's sign: "-7" is one
		// literal, so it binds, probes and classifies like any other
		// constant (and MinInt64, whose magnitude alone overflows, parses).
		if k := p.peek().kind; k == tokInt || k == tokFloat {
			return p.number("-", p.i-1)
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "-", E: e}, nil
	}
	return p.primary()
}

// number parses the numeric token at hand, with the sign unary found
// before it at toks[from], as one literal.
func (p *parser) number(sign string, from int) (Expr, error) {
	t := p.peek()
	if t.kind == tokInt {
		v, err := strconv.ParseInt(sign+t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", sign+t.text)
		}
		p.next()
		return p.lit(Int(v), from), nil
	}
	v, err := strconv.ParseFloat(sign+t.text, 64)
	if err != nil {
		return nil, p.errf("bad float %q", sign+t.text)
	}
	p.next()
	return p.lit(Float(v), from), nil
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt, tokFloat:
		return p.number("", p.i)
	case tokString:
		p.next()
		return p.lit(Text(t.text), p.i-1), nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return p.lit(Null, p.i-1), nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			ag := &Agg{Func: t.text}
			if t.text == "COUNT" && p.acceptSym("*") {
				// COUNT(*): nil operand.
			} else {
				ag.Distinct = p.accept("DISTINCT")
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				ag.E = e
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return ag, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.next()
		if p.acceptSym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.text, Column: col}, nil
		}
		return &ColRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %q in expression", t.text)
}
