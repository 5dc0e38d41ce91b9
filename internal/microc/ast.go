// Package microc is the C front-end substrate for MIXY, standing in
// for CIL in the paper's prototype (Section 4). It defines a C subset
// sufficient for the vsftpd case study: functions, pointers, structs,
// malloc/NULL, control flow, null/nonnull type-qualifier annotations,
// and the MIX(typed) / MIX(symbolic) function annotations at which
// MIXY switches analyses.
//
// Deviations from C (documented in DESIGN.md): no preprocessor,
// casts only in prefix form before unary expressions, and function
// pointers are declared with the dedicated keyword "fnptr" instead of
// C's declarator syntax.
package microc

import "fmt"

// Pos is a source position.
type Pos struct{ Line, Col int }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Qual is a nullness type qualifier annotation.
type Qual int

const (
	// QNone means unannotated: inference assigns a qualifier variable.
	QNone Qual = iota
	// QNull annotates a pointer that may be null.
	QNull
	// QNonNull annotates a pointer that must not be null.
	QNonNull
)

func (q Qual) String() string {
	switch q {
	case QNull:
		return "null"
	case QNonNull:
		return "nonnull"
	}
	return ""
}

// MixAnno is a MIX block annotation on a function.
type MixAnno int

const (
	// MixNone leaves the function in the enclosing analysis.
	MixNone MixAnno = iota
	// MixTyped marks the function body a typed block.
	MixTyped
	// MixSymbolic marks the function body a symbolic block.
	MixSymbolic
)

func (m MixAnno) String() string {
	switch m {
	case MixTyped:
		return "MIX(typed)"
	case MixSymbolic:
		return "MIX(symbolic)"
	}
	return ""
}

// Type is a MicroC static type.
type Type interface {
	isType()
	String() string
}

// IntType is C int.
type IntType struct{}

// VoidType is C void.
type VoidType struct{}

// PtrType is a pointer type with an optional nullness annotation.
type PtrType struct {
	Elem Type
	Qual Qual
}

// StructType refers to a named struct.
type StructType struct{ Name string }

// FnPtrType is an opaque pointer-to-function type.
type FnPtrType struct{}

func (IntType) isType()    {}
func (VoidType) isType()   {}
func (PtrType) isType()    {}
func (StructType) isType() {}
func (FnPtrType) isType()  {}

func (IntType) String() string  { return "int" }
func (VoidType) String() string { return "void" }
func (t PtrType) String() string {
	q := ""
	if t.Qual != QNone {
		q = t.Qual.String() + " "
	}
	return t.Elem.String() + " *" + q
}
func (t StructType) String() string { return "struct " + t.Name }
func (FnPtrType) String() string    { return "fnptr" }

// TypeEqual reports structural equality ignoring qualifiers.
func TypeEqual(a, b Type) bool {
	switch a := a.(type) {
	case IntType:
		_, ok := b.(IntType)
		return ok
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case PtrType:
		bp, ok := b.(PtrType)
		return ok && TypeEqual(a.Elem, bp.Elem)
	case StructType:
		bs, ok := b.(StructType)
		return ok && a.Name == bs.Name
	case FnPtrType:
		_, ok := b.(FnPtrType)
		return ok
	}
	return false
}

// Program is a parsed and resolved translation unit.
type Program struct {
	Structs []*StructDef
	Globals []*VarDecl
	Funcs   []*FuncDef

	structsByName map[string]*StructDef
	funcsByName   map[string]*FuncDef
	globalsByName map[string]*VarDecl
}

// Struct looks up a struct definition by name.
func (p *Program) Struct(name string) (*StructDef, bool) {
	s, ok := p.structsByName[name]
	return s, ok
}

// Func looks up a function by name.
func (p *Program) Func(name string) (*FuncDef, bool) {
	f, ok := p.funcsByName[name]
	return f, ok
}

// Global looks up a global variable by name.
func (p *Program) Global(name string) (*VarDecl, bool) {
	g, ok := p.globalsByName[name]
	return g, ok
}

// StructDef is a struct definition.
type StructDef struct {
	Pos    Pos
	Name   string
	Fields []*VarDecl
}

// Field looks up a field by name.
func (s *StructDef) Field(name string) (*VarDecl, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// VarKind distinguishes declaration roles.
type VarKind int

const (
	// GlobalVar is a file-scope variable.
	GlobalVar VarKind = iota
	// LocalVar is a function-local variable.
	LocalVar
	// ParamVar is a function parameter.
	ParamVar
	// FieldVar is a struct field.
	FieldVar
)

// VarDecl is a variable, parameter, or field declaration.
type VarDecl struct {
	Pos  Pos
	Name string
	Type Type
	Kind VarKind
	// Init is the optional initializer (globals and locals).
	Init Expr
	// Owner is the enclosing function (locals and params) or struct
	// name (fields).
	Owner string
}

func (d *VarDecl) String() string { return d.Type.String() + " " + d.Name }

// FuncDef is a function definition or extern declaration (nil Body).
type FuncDef struct {
	Pos    Pos
	Name   string
	Ret    Type
	Params []*VarDecl
	Body   *BlockStmt // nil for extern declarations
	Mix    MixAnno
	Locals []*VarDecl // filled by the resolver
}

// IsExtern reports whether the function has no body.
func (f *FuncDef) IsExtern() bool { return f.Body == nil }

// Stmt is a statement.
type Stmt interface {
	isStmt()
	StmtPos() Pos
}

type stmtBase struct{ P Pos }

func (s stmtBase) StmtPos() Pos { return s.P }

// BlockStmt is { stmts }.
type BlockStmt struct {
	stmtBase
	Stmts []Stmt
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	stmtBase
	Decl *VarDecl
}

// ExprStmt evaluates an expression for effect (calls, assignments).
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is if (cond) then else.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is while (cond) body.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// ReturnStmt is return expr? ;
type ReturnStmt struct {
	stmtBase
	X Expr // may be nil
}

func (*BlockStmt) isStmt()  {}
func (*DeclStmt) isStmt()   {}
func (*ExprStmt) isStmt()   {}
func (*IfStmt) isStmt()     {}
func (*WhileStmt) isStmt()  {}
func (*ReturnStmt) isStmt() {}

// UnaryOp enumerates unary operators.
type UnaryOp int

const (
	// OpDeref is *e.
	OpDeref UnaryOp = iota
	// OpAddr is &e.
	OpAddr
	// OpNot is !e.
	OpNot
	// OpNeg is -e.
	OpNeg
)

var unaryNames = map[UnaryOp]string{OpDeref: "*", OpAddr: "&", OpNot: "!", OpNeg: "-"}

// BinaryOp enumerates binary operators.
type BinaryOp int

const (
	// OpAdd is +.
	OpAdd BinaryOp = iota
	// OpSub is -.
	OpSub
	// OpEq is ==.
	OpEq
	// OpNe is !=.
	OpNe
	// OpLt is <.
	OpLt
	// OpGt is >.
	OpGt
	// OpLe is <=.
	OpLe
	// OpGe is >=.
	OpGe
	// OpAnd is && (non-short-circuit in our semantics).
	OpAnd
	// OpOr is ||.
	OpOr
)

var binaryNames = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpEq: "==", OpNe: "!=",
	OpLt: "<", OpGt: ">", OpLe: "<=", OpGe: ">=", OpAnd: "&&", OpOr: "||",
}

// Expr is an expression. Resolved expressions carry their static type.
type Expr interface {
	isExpr()
	ExprPos() Pos
	// StaticType is filled by the resolver.
	StaticType() Type
	String() string
}

type exprBase struct {
	P  Pos
	Ty Type
}

func (e exprBase) ExprPos() Pos     { return e.P }
func (e exprBase) StaticType() Type { return e.Ty }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val int64
}

// NullLit is NULL.
type NullLit struct{ exprBase }

// VarRef is a reference to a variable or function name. Ref is filled
// by the resolver: a *VarDecl or *FuncDef.
type VarRef struct {
	exprBase
	Name string
	Ref  any
}

// Unary is a unary operation.
type Unary struct {
	exprBase
	Op UnaryOp
	X  Expr
}

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   BinaryOp
	X, Y Expr
}

// Assign is the assignment expression lhs = rhs (value is rhs).
type Assign struct {
	exprBase
	LHS, RHS Expr
}

// Call is a function call; Fun is a VarRef to a function, or an
// expression of fnptr type.
type Call struct {
	exprBase
	Fun  Expr
	Args []Expr
}

// Field is e.Name or e->Name (Arrow).
type Field struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
}

// Malloc is malloc(sizeof(T)); each syntactic occurrence is a distinct
// allocation site with its resolver-assigned Site id.
type Malloc struct {
	exprBase
	ElemType Type
	Site     int
}

// Cast is (T) e; MicroC casts are only between pointer types and are
// semantically transparent.
type Cast struct {
	exprBase
	To Type
	X  Expr
}

func (*IntLit) isExpr()  {}
func (*NullLit) isExpr() {}
func (*VarRef) isExpr()  {}
func (*Unary) isExpr()   {}
func (*Binary) isExpr()  {}
func (*Assign) isExpr()  {}
func (*Call) isExpr()    {}
func (*Field) isExpr()   {}
func (*Malloc) isExpr()  {}
func (*Cast) isExpr()    {}

// String methods print text the parser reads back as the same
// expression. Binary subterms are fully parenthesized; elsewhere a
// subterm is parenthesized exactly where the parser would otherwise
// bind it differently.

func (e *IntLit) String() string  { return fmt.Sprintf("%d", e.Val) }
func (e *NullLit) String() string { return "NULL" }
func (e *VarRef) String() string  { return e.Name }
func (e *Unary) String() string   { return unaryNames[e.Op] + operandString(e.X) }
func (e *Binary) String() string {
	return "(" + operandString(e.X) + " " + binaryNames[e.Op] + " " + operandString(e.Y) + ")"
}
func (e *Assign) String() string { return e.LHS.String() + " = " + e.RHS.String() }
func (e *Call) String() string {
	s := postfixBaseString(e.Fun) + "("
	for i, a := range e.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}
func (e *Field) String() string {
	sep := "."
	if e.Arrow {
		sep = "->"
	}
	return postfixBaseString(e.X) + sep + e.Name
}

func (e *Malloc) String() string { return "malloc(sizeof(" + e.ElemType.String() + "))" }
func (e *Cast) String() string   { return "(" + e.To.String() + ")" + operandString(e.X) }

// operandString prints an operand of a unary, binary or cast, where
// an unparenthesized assignment would take over the rest of the
// expression.
func operandString(e Expr) string {
	if _, ok := e.(*Assign); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// postfixBaseString prints the base of a field access or call. A
// postfix operator binds tighter than a prefix one, so a unary, cast
// or assignment base needs parentheses: (*p)->f is not *(p->f), and
// (*f)() is not *(f()).
func postfixBaseString(e Expr) string {
	switch e.(type) {
	case *Unary, *Cast, *Assign:
		return "(" + e.String() + ")"
	}
	return e.String()
}
