package microc

import (
	"fmt"
	"strings"
)

// Print renders a resolved program back to MicroC source. Printing
// then reparsing is a fixed point (tested and fuzzed by FuzzParseC),
// which makes the printer usable for corpus tooling and program
// transformation.
func Print(p *Program) string {
	var b strings.Builder
	for _, s := range p.Structs {
		fmt.Fprintf(&b, "struct %s {\n", s.Name)
		for _, f := range s.Fields {
			fmt.Fprintf(&b, "  %s;\n", declString(f))
		}
		b.WriteString("};\n")
	}
	for _, g := range p.Globals {
		b.WriteString(declString(g))
		if g.Init != nil {
			b.WriteString(" = " + g.Init.String())
		}
		b.WriteString(";\n")
	}
	for _, f := range p.Funcs {
		b.WriteString(funcHeader(f))
		if f.Body == nil {
			b.WriteString(";\n")
			continue
		}
		b.WriteString(" ")
		printStmt(&b, f.Body, 0)
		b.WriteString("\n")
	}
	return b.String()
}

// PrintFunc renders a single resolved function back to MicroC source
// (header plus body, or "header;" for an extern). It is the canonical
// text the summary store content-hashes: any edit that changes a
// function's analysis-relevant shape changes this string.
func PrintFunc(f *FuncDef) string {
	var b strings.Builder
	b.WriteString(funcHeader(f))
	if f.Body == nil {
		b.WriteString(";\n")
		return b.String()
	}
	b.WriteString(" ")
	printStmt(&b, f.Body, 0)
	b.WriteString("\n")
	return b.String()
}

// declString renders "basetype stars name" with qualifiers.
func declString(d *VarDecl) string {
	base, stars := splitType(d.Type)
	return base + " " + stars + d.Name
}

// splitType separates the base type from the pointer-star prefix of
// the declarator (qualifiers ride with their star).
func splitType(t Type) (base, stars string) {
	switch t := t.(type) {
	case PtrType:
		b, s := splitType(t.Elem)
		star := "*"
		if t.Qual != QNone {
			star += t.Qual.String() + " "
		}
		return b, s + star
	default:
		return t.String(), ""
	}
}

func funcHeader(f *FuncDef) string {
	base, stars := splitType(f.Ret)
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = declString(p)
	}
	paramStr := strings.Join(params, ", ")
	if paramStr == "" {
		paramStr = "void"
	}
	s := fmt.Sprintf("%s %s%s(%s)", base, stars, f.Name, paramStr)
	if f.Mix != MixNone {
		s += " " + f.Mix.String()
	}
	return s
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	switch s := s.(type) {
	case *BlockStmt:
		b.WriteString("{\n")
		for _, inner := range s.Stmts {
			b.WriteString(ind + "  ")
			printStmt(b, inner, depth+1)
			b.WriteString("\n")
		}
		b.WriteString(ind + "}")
	case *DeclStmt:
		b.WriteString(declString(s.Decl))
		if s.Decl.Init != nil {
			b.WriteString(" = " + s.Decl.Init.String())
		}
		b.WriteString(";")
	case *ExprStmt:
		b.WriteString(s.X.String() + ";")
	case *IfStmt:
		b.WriteString("if (" + s.Cond.String() + ") ")
		printStmt(b, blockify(s.Then), depth)
		if s.Else != nil {
			b.WriteString(" else ")
			printStmt(b, blockify(s.Else), depth)
		}
	case *WhileStmt:
		b.WriteString("while (" + s.Cond.String() + ") ")
		printStmt(b, blockify(s.Body), depth)
	case *ReturnStmt:
		if s.X == nil {
			b.WriteString("return;")
		} else {
			b.WriteString("return " + s.X.String() + ";")
		}
	}
}

// blockify wraps non-block branch bodies so the printed form is
// unambiguous.
func blockify(s Stmt) Stmt {
	if _, ok := s.(*BlockStmt); ok {
		return s
	}
	return &BlockStmt{Stmts: []Stmt{s}}
}
