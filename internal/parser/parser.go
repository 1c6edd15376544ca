// Package parser implements the recursive-descent parser for MiniC.
//
// The parser produces an untyped AST; symbol resolution, typing, and
// implicit-conversion insertion happen afterwards in internal/sema.
// Expressions are parsed by precedence climbing with the C precedence
// table from internal/ast.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"dcelens/internal/ast"
	"dcelens/internal/lexer"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a complete MiniC translation unit. It returns the program
// and the first error encountered, if any; on error the program may be
// partially populated.
func Parse(src string) (*ast.Program, error) {
	toks, lexErrs := lexer.Scan([]byte(src))
	if len(lexErrs) > 0 {
		return nil, lexErrs[0]
	}
	p := &parser{toks: toks}
	prog := &ast.Program{}
	err := p.catch(func() {
		for p.cur().Kind != token.EOF {
			prog.Decls = append(prog.Decls, p.decl())
		}
	})
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse parses src and panics on error; for tests and fixtures.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []token.Token
	pos  int
}

type bailout struct{ err *Error }

func (p *parser) catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(bailout); ok {
				err = b.err
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	panic(bailout{&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}})
}

func (p *parser) cur() token.Token { return p.toks[p.pos] }

func (p *parser) peek(n int) token.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() token.Token {
	t := p.toks[p.pos]
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.cur()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
	}
	return p.next()
}

// ---------------------------------------------------------------------------
// Types

func isTypeStart(k token.Kind) bool {
	switch k {
	case token.KwVoid, token.KwChar, token.KwShort, token.KwInt, token.KwLong,
		token.KwSigned, token.KwUnsigned:
		return true
	}
	return false
}

// baseType parses a base type: void, or [signed|unsigned] char/short/int/long
// (with the optional trailing "int" of "short int"/"long int"), followed by
// any number of '*'.
func (p *parser) baseType() *types.Type {
	pos := p.cur().Pos
	var t *types.Type
	switch {
	case p.accept(token.KwVoid):
		t = types.VoidType
	default:
		signed := true
		explicitSign := false
		if p.accept(token.KwUnsigned) {
			signed, explicitSign = false, true
		} else if p.accept(token.KwSigned) {
			explicitSign = true
		}
		switch {
		case p.accept(token.KwChar):
			t = types.I8Type
		case p.accept(token.KwShort):
			p.accept(token.KwInt)
			t = types.I16Type
		case p.accept(token.KwInt):
			t = types.I32Type
		case p.accept(token.KwLong):
			p.accept(token.KwLong) // accept "long long" as long (both 64-bit)
			p.accept(token.KwInt)
			t = types.I64Type
		default:
			if !explicitSign {
				p.errorf(pos, "expected type, found %s", p.cur())
			}
			t = types.I32Type // bare "unsigned" / "signed"
		}
		if !signed {
			t = t.Unsigned()
		}
	}
	for p.accept(token.Star) {
		t = types.PointerTo(t)
	}
	return t
}

func (p *parser) storage() ast.Storage {
	switch {
	case p.accept(token.KwStatic):
		return ast.StorageStatic
	case p.accept(token.KwExtern):
		return ast.StorageExtern
	}
	return ast.StorageNone
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) decl() ast.Decl {
	sto := p.storage()
	typ := p.baseType()
	name := p.expect(token.Ident)
	if p.cur().Kind == token.LParen {
		return p.funcDecl(sto, typ, name)
	}
	d := p.varDeclRest(sto, typ, name, true)
	p.expect(token.Semicolon)
	return d
}

// varDeclRest parses the remainder of a variable declaration after the
// storage class, base type, and name have been consumed.
func (p *parser) varDeclRest(sto ast.Storage, typ *types.Type, name token.Token, global bool) *ast.VarDecl {
	d := &ast.VarDecl{
		NamePos:  name.Pos,
		Name:     name.Text,
		Typ:      typ,
		Storage:  sto,
		IsGlobal: global,
	}
	if p.accept(token.LBracket) {
		lenTok := p.expect(token.IntLit)
		n, err := parseIntText(lenTok.Text)
		if err != nil || n.val <= 0 || n.val > 1<<20 {
			p.errorf(lenTok.Pos, "invalid array length %q", lenTok.Text)
		}
		d.Typ = types.ArrayOf(typ, int(n.val))
		p.expect(token.RBracket)
	}
	if p.accept(token.Assign) {
		if d.Typ.Kind == types.Array {
			d.Init = p.arrayInit(d.Typ)
		} else {
			d.Init = p.assignExpr()
		}
	}
	return d
}

func (p *parser) arrayInit(t *types.Type) ast.Expr {
	lb := p.expect(token.LBrace)
	init := &ast.ArrayInit{LbracePos: lb.Pos, Typ: t}
	for p.cur().Kind != token.RBrace {
		init.Elems = append(init.Elems, p.assignExpr())
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RBrace)
	if len(init.Elems) > t.Len {
		p.errorf(lb.Pos, "too many initializers for %s", t)
	}
	return init
}

func (p *parser) funcDecl(sto ast.Storage, ret *types.Type, name token.Token) *ast.FuncDecl {
	f := &ast.FuncDecl{NamePos: name.Pos, Name: name.Text, Ret: ret, Storage: sto}
	p.expect(token.LParen)
	if p.cur().Kind == token.KwVoid && p.peek(1).Kind == token.RParen {
		p.next()
	} else if p.cur().Kind != token.RParen {
		for {
			ptyp := p.baseType()
			pname := p.expect(token.Ident)
			f.Params = append(f.Params, &ast.VarDecl{
				NamePos: pname.Pos,
				Name:    pname.Text,
				Typ:     ptyp,
				IsParam: true,
			})
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RParen)
	if p.accept(token.Semicolon) {
		return f // declaration only (e.g. an optimization marker)
	}
	f.Body = p.block()
	return f
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) block() *ast.Block {
	lb := p.expect(token.LBrace)
	b := &ast.Block{LbracePos: lb.Pos}
	for p.cur().Kind != token.RBrace {
		if p.cur().Kind == token.EOF {
			p.errorf(lb.Pos, "unterminated block")
		}
		b.Stmts = append(b.Stmts, p.stmt())
	}
	p.expect(token.RBrace)
	return b
}

func (p *parser) localDecl() *ast.DeclStmt {
	sto := p.storage()
	if sto == ast.StorageExtern {
		p.errorf(p.cur().Pos, "extern is not allowed on local declarations")
	}
	typ := p.baseType()
	name := p.expect(token.Ident)
	d := p.varDeclRest(sto, typ, name, false)
	return &ast.DeclStmt{Decl: d}
}

func (p *parser) stmt() ast.Stmt {
	t := p.cur()
	switch t.Kind {
	case token.LBrace:
		return p.block()
	case token.Semicolon:
		p.next()
		return &ast.Empty{SemiPos: t.Pos}
	case token.KwStatic:
		d := p.localDecl()
		p.expect(token.Semicolon)
		return d
	case token.KwIf:
		p.next()
		p.expect(token.LParen)
		cond := p.expr()
		p.expect(token.RParen)
		s := &ast.If{IfPos: t.Pos, Cond: cond, Then: p.stmt()}
		if p.accept(token.KwElse) {
			s.Else = p.stmt()
		}
		return s
	case token.KwWhile:
		p.next()
		p.expect(token.LParen)
		cond := p.expr()
		p.expect(token.RParen)
		return &ast.While{WhilePos: t.Pos, Cond: cond, Body: p.stmt()}
	case token.KwDo:
		p.next()
		body := p.stmt()
		p.expect(token.KwWhile)
		p.expect(token.LParen)
		cond := p.expr()
		p.expect(token.RParen)
		p.expect(token.Semicolon)
		return &ast.DoWhile{DoPos: t.Pos, Body: body, Cond: cond}
	case token.KwFor:
		p.next()
		p.expect(token.LParen)
		s := &ast.For{ForPos: t.Pos}
		switch {
		case p.accept(token.Semicolon):
			// no init
		case isTypeStart(p.cur().Kind):
			s.Init = p.localDecl()
			p.expect(token.Semicolon)
		default:
			s.Init = &ast.ExprStmt{X: p.expr()}
			p.expect(token.Semicolon)
		}
		if p.cur().Kind != token.Semicolon {
			s.Cond = p.expr()
		}
		p.expect(token.Semicolon)
		if p.cur().Kind != token.RParen {
			s.Post = p.expr()
		}
		p.expect(token.RParen)
		s.Body = p.stmt()
		return s
	case token.KwReturn:
		p.next()
		s := &ast.Return{RetPos: t.Pos}
		if p.cur().Kind != token.Semicolon {
			s.X = p.expr()
		}
		p.expect(token.Semicolon)
		return s
	case token.KwBreak:
		p.next()
		p.expect(token.Semicolon)
		return &ast.Break{BrPos: t.Pos}
	case token.KwContinue:
		p.next()
		p.expect(token.Semicolon)
		return &ast.Continue{ContPos: t.Pos}
	case token.KwSwitch:
		return p.switchStmt()
	case token.KwGoto:
		p.errorf(t.Pos, "goto is not part of MiniC")
	}
	if isTypeStart(t.Kind) {
		d := p.localDecl()
		p.expect(token.Semicolon)
		return d
	}
	x := p.expr()
	p.expect(token.Semicolon)
	return &ast.ExprStmt{X: x}
}

func (p *parser) switchStmt() ast.Stmt {
	sw := p.expect(token.KwSwitch)
	p.expect(token.LParen)
	tag := p.expr()
	p.expect(token.RParen)
	p.expect(token.LBrace)
	s := &ast.Switch{SwPos: sw.Pos, Tag: tag}
	for p.cur().Kind != token.RBrace {
		c := &ast.SwitchCase{CasePos: p.cur().Pos}
		// One or more case/default labels.
		for {
			if p.accept(token.KwDefault) {
				p.expect(token.Colon)
				c.IsDefault = true
			} else if p.accept(token.KwCase) {
				c.Vals = append(c.Vals, p.condExpr())
				p.expect(token.Colon)
			} else {
				break
			}
		}
		if len(c.Vals) == 0 && !c.IsDefault {
			p.errorf(p.cur().Pos, "expected case or default label, found %s", p.cur())
		}
		for {
			k := p.cur().Kind
			if k == token.KwCase || k == token.KwDefault || k == token.RBrace {
				break
			}
			c.Body = append(c.Body, p.stmt())
		}
		s.Cases = append(s.Cases, c)
	}
	p.expect(token.RBrace)
	return s
}

// ---------------------------------------------------------------------------
// Expressions

// expr parses a full expression (assignment level; MiniC has no comma
// operator).
func (p *parser) expr() ast.Expr { return p.assignExpr() }

func (p *parser) assignExpr() ast.Expr {
	lhs := p.condExpr()
	op := p.cur()
	if !op.Kind.IsAssignOp() {
		return lhs
	}
	p.next()
	rhs := p.assignExpr() // right associative
	return &ast.Assign{OpPos: op.Pos, Op: op.Kind, LHS: lhs, RHS: rhs}
}

func (p *parser) condExpr() ast.Expr {
	cond := p.binExpr(0)
	q := p.cur()
	if q.Kind != token.Question {
		return cond
	}
	p.next()
	then := p.condExpr()
	p.expect(token.Colon)
	els := p.condExpr()
	return &ast.Cond{QPos: q.Pos, CondX: cond, Then: then, Else: els}
}

// binLevel returns the precedence-climbing level of a binary operator,
// or -1 if the token is not a binary operator.
func binLevel(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 1
	case token.AndAnd:
		return 2
	case token.Pipe:
		return 3
	case token.Caret:
		return 4
	case token.Amp:
		return 5
	case token.EqEq, token.NotEq:
		return 6
	case token.Lt, token.Gt, token.Le, token.Ge:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Plus, token.Minus:
		return 9
	case token.Star, token.Slash, token.Percent:
		return 10
	}
	return -1
}

func (p *parser) binExpr(minLevel int) ast.Expr {
	lhs := p.unaryExpr()
	for {
		op := p.cur()
		lvl := binLevel(op.Kind)
		if lvl < 0 || lvl < minLevel {
			return lhs
		}
		p.next()
		rhs := p.binExpr(lvl + 1) // all binary operators are left associative
		lhs = &ast.Binary{OpPos: op.Pos, Op: op.Kind, X: lhs, Y: rhs}
	}
}

func (p *parser) unaryExpr() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.Minus, token.Tilde, token.Not, token.Amp, token.Star, token.Plus:
		p.next()
		x := p.unaryExpr()
		if t.Kind == token.Plus {
			return x // unary plus is a no-op
		}
		return &ast.Unary{OpPos: t.Pos, Op: t.Kind, X: x}
	case token.PlusPlus, token.MinusMinus:
		p.next()
		x := p.unaryExpr()
		return &ast.IncDec{OpPos: t.Pos, Op: t.Kind, Prefix: true, X: x}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() ast.Expr {
	x := p.primaryExpr()
	for {
		t := p.cur()
		switch t.Kind {
		case token.LBracket:
			p.next()
			idx := p.expr()
			p.expect(token.RBracket)
			x = &ast.Index{LbrackPos: t.Pos, Base: x, Idx: idx}
		case token.PlusPlus, token.MinusMinus:
			p.next()
			x = &ast.IncDec{OpPos: t.Pos, Op: t.Kind, Prefix: false, X: x}
		default:
			return x
		}
	}
}

func (p *parser) primaryExpr() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IntLit:
		p.next()
		n, err := parseIntText(t.Text)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q: %v", t.Text, err)
		}
		return &ast.IntLit{LitPos: t.Pos, Val: n.canonical(), Typ: n.typ}
	case token.Ident:
		p.next()
		if p.cur().Kind == token.LParen {
			p.next()
			call := &ast.Call{NamePos: t.Pos, Name: t.Text}
			for p.cur().Kind != token.RParen {
				call.Args = append(call.Args, p.assignExpr())
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.RParen)
			return call
		}
		return &ast.VarRef{NamePos: t.Pos, Name: t.Text}
	case token.LParen:
		p.next()
		x := p.expr()
		p.expect(token.RParen)
		return x
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	return nil
}

// ---------------------------------------------------------------------------
// Integer literals

type intLit struct {
	val uint64
	typ *types.Type
}

// canonical returns the literal bits in the canonical int64 representation
// of its type.
func (n intLit) canonical() int64 { return n.typ.WrapValue(int64(n.val)) }

// parseIntText decodes a C integer literal with optional u/U and l/L
// suffixes, assigning the type as C does: plain decimals are int if they
// fit, otherwise long; U makes them unsigned int or unsigned long; L forces
// the 64-bit width.
func parseIntText(text string) (intLit, error) {
	s := strings.ToLower(text)
	unsigned, long := false, false
	for strings.HasSuffix(s, "u") || strings.HasSuffix(s, "l") {
		if strings.HasSuffix(s, "u") {
			unsigned = true
			s = s[:len(s)-1]
		} else {
			long = true
			s = s[:len(s)-1]
			if strings.HasSuffix(s, "l") {
				s = s[:len(s)-1]
			}
		}
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return intLit{}, err
	}
	var t *types.Type
	switch {
	case unsigned && (long || v > 0xFFFFFFFF):
		t = types.U64Type
	case unsigned:
		t = types.U32Type
	case long || v > 0x7FFFFFFF:
		t = types.I64Type
	default:
		t = types.I32Type
	}
	return intLit{val: v, typ: t}, nil
}
