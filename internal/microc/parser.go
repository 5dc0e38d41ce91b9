package microc

import (
	"fmt"
	"strconv"
)

// Parse parses and resolves a MicroC translation unit.
func Parse(src string) (*Program, error) {
	toks, err := lexC(src)
	if err != nil {
		return nil, err
	}
	p := &cparser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := resolve(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

type cparser struct {
	toks       []tok
	i          int
	mallocSite int
}

func (p *cparser) cur() tok          { return p.toks[p.i] }
func (p *cparser) at(k tokKind) bool { return p.cur().kind == k }

func (p *cparser) adv() tok {
	t := p.toks[p.i]
	if t.kind != tEOF {
		p.i++
	}
	return t
}

func (p *cparser) errf(format string, args ...any) error {
	return &ParseError{p.cur().pos, fmt.Sprintf(format, args...)}
}

func (p *cparser) expect(k tokKind) (tok, error) {
	if !p.at(k) {
		return tok{}, p.errf("expected %s, found %s", kindNames[k], kindNames[p.cur().kind])
	}
	return p.adv(), nil
}

// atType reports whether the current token starts a type.
func (p *cparser) atType() bool {
	switch p.cur().kind {
	case tKwInt, tKwVoid, tKwStruct, tKwFnptr:
		return true
	}
	return false
}

// parseBaseType parses int | void | struct ident | fnptr.
func (p *cparser) parseBaseType() (Type, error) {
	switch p.cur().kind {
	case tKwInt:
		p.adv()
		return IntType{}, nil
	case tKwVoid:
		p.adv()
		return VoidType{}, nil
	case tKwFnptr:
		p.adv()
		return FnPtrType{}, nil
	case tKwStruct:
		p.adv()
		name, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		return StructType{name.text}, nil
	}
	return nil, p.errf("expected type, found %s", kindNames[p.cur().kind])
}

// parseDeclarator parses ('*' qual?)* ident, wrapping base in pointer
// types (innermost star binds closest to the base type).
func (p *cparser) parseDeclarator(base Type) (Type, string, Pos, error) {
	ty := base
	for p.at(tStar) {
		p.adv()
		q := QNone
		switch p.cur().kind {
		case tKwQNull:
			p.adv()
			q = QNull
		case tKwQNonnul:
			p.adv()
			q = QNonNull
		}
		ty = PtrType{Elem: ty, Qual: q}
	}
	id, err := p.expect(tIdent)
	if err != nil {
		return nil, "", Pos{}, err
	}
	return ty, id.text, id.pos, nil
}

// parsePointerSuffix parses '*'* after a base type (for casts and
// sizeof).
func (p *cparser) parsePointerSuffix(base Type) Type {
	ty := base
	for p.at(tStar) {
		p.adv()
		ty = PtrType{Elem: ty}
	}
	return ty
}

func (p *cparser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.at(tEOF) {
		// "struct" then EOF leaves no token two ahead.
		if p.at(tKwStruct) && p.i+2 < len(p.toks) && p.toks[p.i+2].kind == tLBrace {
			sd, err := p.parseStructDef()
			if err != nil {
				return nil, err
			}
			prog.Structs = append(prog.Structs, sd)
			continue
		}
		if err := p.parseTopDecl(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func (p *cparser) parseStructDef() (*StructDef, error) {
	pos := p.adv().pos // struct
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	sd := &StructDef{Pos: pos, Name: name.text}
	for !p.at(tRBrace) {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		ty, fname, fpos, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, &VarDecl{
			Pos: fpos, Name: fname, Type: ty, Kind: FieldVar, Owner: name.text,
		})
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
	}
	p.adv() // }
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return sd, nil
}

// parseTopDecl parses a global variable or function.
func (p *cparser) parseTopDecl(prog *Program) error {
	base, err := p.parseBaseType()
	if err != nil {
		return err
	}
	ty, name, pos, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}
	if p.at(tLParen) {
		fd, err := p.parseFuncRest(pos, name, ty)
		if err != nil {
			return err
		}
		prog.Funcs = append(prog.Funcs, fd)
		return nil
	}
	decl := &VarDecl{Pos: pos, Name: name, Type: ty, Kind: GlobalVar}
	if p.at(tAssign) {
		p.adv()
		init, err := p.parseExpr()
		if err != nil {
			return err
		}
		decl.Init = init
	}
	if _, err := p.expect(tSemi); err != nil {
		return err
	}
	prog.Globals = append(prog.Globals, decl)
	return nil
}

func (p *cparser) parseFuncRest(pos Pos, name string, ret Type) (*FuncDef, error) {
	p.adv() // (
	fd := &FuncDef{Pos: pos, Name: name, Ret: ret}
	if p.at(tKwVoid) && p.toks[p.i+1].kind == tRParen {
		p.adv()
	}
	for !p.at(tRParen) {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		ty, pname, ppos, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		fd.Params = append(fd.Params, &VarDecl{
			Pos: ppos, Name: pname, Type: ty, Kind: ParamVar, Owner: name,
		})
		if p.at(tComma) {
			p.adv()
		} else if !p.at(tRParen) {
			return nil, p.errf("expected ',' or ')' in parameter list")
		}
	}
	p.adv() // )
	if p.at(tKwMix) {
		p.adv()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		switch p.cur().kind {
		case tKwTyped:
			fd.Mix = MixTyped
		case tKwSymb:
			fd.Mix = MixSymbolic
		default:
			return nil, p.errf("expected 'typed' or 'symbolic' in MIX annotation")
		}
		p.adv()
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
	}
	if p.at(tSemi) {
		p.adv() // extern declaration
		return fd, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *cparser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(tLBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{stmtBase: stmtBase{lb.pos}}
	for !p.at(tRBrace) {
		if p.at(tEOF) {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.adv()
	return blk, nil
}

func (p *cparser) parseStmt() (Stmt, error) {
	switch p.cur().kind {
	case tLBrace:
		return p.parseBlock()
	case tKwIf:
		pos := p.adv().pos
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.at(tKwElse) {
			p.adv()
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{stmtBase{pos}, cond, then, els}, nil
	case tKwWhile:
		pos := p.adv().pos
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase{pos}, cond, body}, nil
	case tKwReturn:
		pos := p.adv().pos
		var x Expr
		if !p.at(tSemi) {
			var err error
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &ReturnStmt{stmtBase{pos}, x}, nil
	}
	if p.atType() {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		ty, name, pos, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		decl := &VarDecl{Pos: pos, Name: name, Type: ty, Kind: LocalVar}
		if p.at(tAssign) {
			p.adv()
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			decl.Init = init
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &DeclStmt{stmtBase{pos}, decl}, nil
	}
	pos := p.cur().pos
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return &ExprStmt{stmtBase{pos}, x}, nil
}

// Expression parsing, lowest precedence first.

func (p *cparser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *cparser) parseAssign() (Expr, error) {
	lhs, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.at(tAssign) {
		pos := p.adv().pos
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase{P: pos}, lhs, rhs}, nil
	}
	return lhs, nil
}

func (p *cparser) parseOr() (Expr, error) {
	lhs, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tOrOr) {
		pos := p.adv().pos
		rhs, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase{P: pos}, OpOr, lhs, rhs}
	}
	return lhs, nil
}

func (p *cparser) parseAnd() (Expr, error) {
	lhs, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.at(tAndAnd) {
		pos := p.adv().pos
		rhs, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase{P: pos}, OpAnd, lhs, rhs}
	}
	return lhs, nil
}

func (p *cparser) parseEquality() (Expr, error) {
	lhs, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.at(tEq) || p.at(tNe) {
		op := OpEq
		if p.at(tNe) {
			op = OpNe
		}
		pos := p.adv().pos
		rhs, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase{P: pos}, op, lhs, rhs}
	}
	return lhs, nil
}

func (p *cparser) parseRel() (Expr, error) {
	lhs, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch p.cur().kind {
		case tLt:
			op = OpLt
		case tGt:
			op = OpGt
		case tLe:
			op = OpLe
		case tGe:
			op = OpGe
		default:
			return lhs, nil
		}
		pos := p.adv().pos
		rhs, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase{P: pos}, op, lhs, rhs}
	}
}

func (p *cparser) parseAdd() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tPlus) || p.at(tMinus) {
		op := OpAdd
		if p.at(tMinus) {
			op = OpSub
		}
		pos := p.adv().pos
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase{P: pos}, op, lhs, rhs}
	}
	return lhs, nil
}

func (p *cparser) parseUnary() (Expr, error) {
	var op UnaryOp
	switch p.cur().kind {
	case tStar:
		op = OpDeref
	case tAmp:
		op = OpAddr
	case tBang:
		op = OpNot
	case tMinus:
		op = OpNeg
	default:
		return p.parsePostfix()
	}
	pos := p.adv().pos
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &Unary{exprBase{P: pos}, op, x}, nil
}

func (p *cparser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tArrow:
			pos := p.adv().pos
			name, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			x = &Field{exprBase{P: pos}, x, name.text, true}
		case tDot:
			pos := p.adv().pos
			name, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			x = &Field{exprBase{P: pos}, x, name.text, false}
		case tLParen:
			pos := p.adv().pos
			call := &Call{exprBase: exprBase{P: pos}, Fun: x}
			for !p.at(tRParen) {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.at(tComma) {
					p.adv()
				} else if !p.at(tRParen) {
					return nil, p.errf("expected ',' or ')' in argument list")
				}
			}
			p.adv()
			x = call
		default:
			return x, nil
		}
	}
}

func (p *cparser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tInt:
		p.adv()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, &ParseError{t.pos, "integer literal out of range"}
		}
		return &IntLit{exprBase{P: t.pos}, v}, nil
	case tKwNull:
		p.adv()
		return &NullLit{exprBase{P: t.pos}}, nil
	case tIdent:
		p.adv()
		return &VarRef{exprBase: exprBase{P: t.pos}, Name: t.text}, nil
	case tKwMalloc:
		p.adv()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tKwSizeof); err != nil {
			return nil, err
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		ty := p.parsePointerSuffix(base)
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		p.mallocSite++
		return &Malloc{exprBase{P: t.pos}, ty, p.mallocSite}, nil
	case tLParen:
		// Cast if '(' is followed by a type keyword; otherwise a
		// parenthesized expression.
		if p.toks[p.i+1].kind == tKwInt || p.toks[p.i+1].kind == tKwVoid ||
			p.toks[p.i+1].kind == tKwStruct || p.toks[p.i+1].kind == tKwFnptr {
			p.adv()
			base, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			ty := p.parsePointerSuffix(base)
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Cast{exprBase{P: t.pos}, ty, x}, nil
		}
		p.adv()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("expected expression, found %s", kindNames[t.kind])
}
