package lang

import (
	"fmt"

	"algspec/internal/ast"
)

// Parse parses source text into a file of specifications. On failure it
// returns all syntax errors found as an ErrorList.
func Parse(src string) (*ast.File, error) {
	p := newParser(src, nil)
	file := p.file()
	if len(p.errs) > 0 {
		return nil, p.errs
	}
	return file, nil
}

// ParseExpr parses a single expression, e.g. "front(add(new, 'x))".
// Trailing input is an error.
func ParseExpr(src string) (ast.Expr, error) {
	e, err := AppendExpr(nil, src)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// AppendExpr is ParseExpr into a buffer: it appends the nodes of src's
// expression to buf, with End indices counted from len(buf), and
// returns the extended buffer and ParseExpr's error. A caller reading
// many expressions passes the previous buffer cut to length 0; then a
// well-formed expression allocates nothing once the buffer is large
// enough. After an error the appended nodes are a partial parse.
func AppendExpr(buf ast.Expr, src string) (ast.Expr, error) {
	p := newParser(src, buf)
	p.expr()
	if p.tok.kind != tokEOF {
		p.errorf("unexpected %s after expression", p.tok)
	}
	if len(p.errs) > 0 {
		return p.nodes, p.errs
	}
	return p.nodes, nil
}

type parser struct {
	lx   lexer
	tok  token
	errs ErrorList
	// depth tracks expression nesting so pathological inputs (deeply
	// nested calls or conditionals, the kind fuzzing finds) report a
	// syntax error instead of exhausting the stack.
	depth int
	// nodes receives every expression parsed, flat; base is the index
	// of the current expression's root, from which its End indices
	// count.
	nodes ast.Expr
	base  int
}

// maxNestingDepth bounds expression recursion. Hand-written specs stay in
// the tens; the bound only exists to turn adversarial inputs into errors.
const maxNestingDepth = 10000

func newParser(src string, nodes ast.Expr) parser {
	p := parser{lx: newLexer(src), nodes: nodes, base: len(nodes)}
	p.tok = p.lx.next()
	return p
}

func (p *parser) pos() ast.Pos { return ast.Pos{Line: p.tok.line, Col: p.tok.col} }

func (p *parser) next() {
	p.tok = p.lx.next()
	// Adopt any lexer errors as they are produced.
	if p.lx.errs != nil {
		p.errs = append(p.errs, p.lx.errs...)
		p.lx.errs = nil
	}
}

// errorf records an error at the current token unless the last error
// is at the same position: recovery often trips over that token again.
func (p *parser) errorf(format string, args ...any) {
	if n := len(p.errs); n > 0 && p.errs[n-1].Line == p.tok.line && p.errs[n-1].Col == p.tok.col {
		return
	}
	p.errs = append(p.errs, &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)})
}

// expect consumes a token of the given kind, reporting an error otherwise.
func (p *parser) expect(kind tokKind) token {
	t := p.tok
	if t.kind != kind {
		p.errorf("expected %s, found %s", kind, t)
		// Do not consume: let the caller's recovery skip.
		return t
	}
	p.next()
	return t
}

// accept consumes a token of the given kind if present.
func (p *parser) accept(kind tokKind) (token, bool) {
	if p.tok.kind == kind {
		t := p.tok
		p.next()
		return t, true
	}
	return token{}, false
}

// file parses a sequence of specs until EOF.
func (p *parser) file() *ast.File {
	f := &ast.File{}
	for p.tok.kind != tokEOF {
		if p.tok.kind != tokSpec {
			p.errorf("expected 'spec', found %s", p.tok)
			p.skipToSpecOrEOF()
			continue
		}
		if sp := p.spec(); sp != nil {
			f.Specs = append(f.Specs, sp)
		}
	}
	return f
}

func (p *parser) skipToSpecOrEOF() {
	for p.tok.kind != tokEOF && p.tok.kind != tokSpec {
		p.next()
	}
}

// spec parses "spec Name <sections> end".
func (p *parser) spec() *ast.Spec {
	pos := p.pos()
	p.expect(tokSpec)
	name := p.expect(tokIdent)
	sp := &ast.Spec{Name: name.text, Pos: pos}
	for {
		switch p.tok.kind {
		case tokUses:
			p.next()
			p.useList(sp)
		case tokParam:
			p.next()
			p.sortList(&sp.Params)
		case tokAtoms:
			p.next()
			p.sortList(&sp.Atoms)
		case tokSorts:
			p.next()
			p.sortList(&sp.Sorts)
		case tokOps:
			p.next()
			p.opsSection(sp)
		case tokVars:
			p.next()
			p.varsSection(sp)
		case tokAxioms:
			p.next()
			p.axiomsSection(sp)
		case tokEnd:
			p.next()
			return sp
		case tokEOF:
			p.errorf("unexpected end of input: spec %s is missing 'end'", sp.Name)
			return sp
		default:
			// Report the stray token once, then resume at the next
			// section: the tokens up to it would only echo the error.
			p.errorf("unexpected %s in spec %s", p.tok, sp.Name)
			for p.next(); !startsSection(p.tok.kind); p.next() {
			}
		}
	}
}

// startsSection reports whether a token ends the skip after a stray
// token in a spec body: a section keyword, 'end' or the end of input.
func startsSection(k tokKind) bool {
	switch k {
	case tokUses, tokParam, tokAtoms, tokSorts, tokOps, tokVars, tokAxioms, tokEnd, tokEOF:
		return true
	}
	return false
}

func (p *parser) useList(sp *ast.Spec) {
	for {
		pos := p.pos()
		t := p.expect(tokIdent)
		if t.kind != tokIdent {
			p.next()
			return
		}
		sp.Uses = append(sp.Uses, ast.Use{Name: t.text, Pos: pos})
		if _, ok := p.accept(tokComma); !ok {
			return
		}
	}
}

func (p *parser) sortList(out *[]ast.SortDecl) {
	for {
		pos := p.pos()
		t := p.expect(tokIdent)
		if t.kind != tokIdent {
			p.next()
			return
		}
		*out = append(*out, ast.SortDecl{Name: t.text, Pos: pos})
		if _, ok := p.accept(tokComma); !ok {
			return
		}
	}
}

// opsSection parses operation declarations until a section keyword or end:
//
//	name : Sort, Sort -> Sort
//	name : -> Sort
//	native name : Sort, Sort -> Bool
func (p *parser) opsSection(sp *ast.Spec) {
	for {
		native := false
		if _, ok := p.accept(tokNative); ok {
			native = true
		}
		if p.tok.kind != tokIdent {
			if native {
				p.errorf("expected operation name after 'native', found %s", p.tok)
			}
			return
		}
		pos := p.pos()
		name := p.tok.text
		p.next()
		p.expect(tokColon)
		decl := &ast.OpDecl{Name: name, Pos: pos, Native: native}
		if p.tok.kind == tokIdent {
			for {
				d := p.expect(tokIdent)
				decl.Domain = append(decl.Domain, d.text)
				if _, ok := p.accept(tokComma); !ok {
					break
				}
			}
		}
		p.expect(tokArrow)
		rng := p.expect(tokIdent)
		decl.Range = rng.text
		sp.Ops = append(sp.Ops, decl)
	}
}

// varsSection parses variable declarations: "q, r : Queue".
func (p *parser) varsSection(sp *ast.Spec) {
	for p.tok.kind == tokIdent {
		pos := p.pos()
		decl := &ast.VarDecl{Pos: pos}
		for {
			n := p.expect(tokIdent)
			decl.Names = append(decl.Names, n.text)
			if _, ok := p.accept(tokComma); !ok {
				break
			}
		}
		p.expect(tokColon)
		s := p.expect(tokIdent)
		decl.Sort = s.text
		sp.Vars = append(sp.Vars, decl)
	}
}

// axiomsSection parses axioms until a section keyword or 'end':
//
//	[label] lhs = rhs
func (p *parser) axiomsSection(sp *ast.Spec) {
	for {
		switch p.tok.kind {
		case tokLBrack, tokIdent, tokIf, tokError, tokAtom:
			// An axiom can start with any expression form, though sema
			// will insist the LHS is an operation application.
		default:
			return
		}
		pos := p.pos()
		ax := &ast.Axiom{Pos: pos}
		if _, ok := p.accept(tokLBrack); ok {
			lbl := p.expect(tokIdent)
			ax.Label = lbl.text
			p.expect(tokRBrack)
		}
		ax.LHS = p.side()
		p.expect(tokEquals)
		ax.RHS = p.side()
		sp.Axioms = append(sp.Axioms, ax)
		if len(p.errs) > 0 && p.tok.kind == tokEOF {
			return
		}
	}
}

// side parses one side of an axiom as an expression of its own: its
// End indices count from its root, and its capacity ends at its last
// node, so the expressions parsed after it do not write into it.
func (p *parser) side() ast.Expr {
	p.base = len(p.nodes)
	p.expr()
	return p.nodes[p.base:len(p.nodes):len(p.nodes)]
}

// expr appends one expression to p.nodes. Nesting deeper than
// maxNestingDepth is an error, so pathological inputs cannot exhaust
// the stack; a node that fails to parse is appended as the
// placeholder call "<error>", so parsing can continue.
func (p *parser) expr() {
	i := len(p.nodes)
	p.nodes = append(p.nodes, ast.Node{Pos: p.pos()})
	p.depth++
	if p.depth > maxNestingDepth {
		p.errorf("expression nesting exceeds %d levels", maxNestingDepth)
		p.next()
		p.nodes[i].Text = "<error>"
	} else {
		switch p.tok.kind {
		case tokIf:
			p.nodes[i].Kind, p.nodes[i].Args = ast.If, 3
			p.next()
			p.expr()
			p.expect(tokThen)
			p.expr()
			p.expect(tokElse)
			p.expr()
		case tokError:
			p.nodes[i].Kind = ast.Error
			p.next()
		case tokAtom:
			p.nodes[i].Kind, p.nodes[i].Text = ast.Atom, p.tok.text
			p.next()
			// Optional sort annotation 'x:Sort.
			if p.tok.kind == tokColon {
				p.next()
				p.nodes[i].Anno = p.expect(tokIdent).text
			}
		case tokIdent:
			p.nodes[i].Text = p.tok.text
			p.next()
			if p.tok.kind == tokLParen {
				p.nodes[i].Parens = true
				p.next()
				var args int32
				if p.tok.kind != tokRParen {
					for {
						p.expr()
						args++
						if p.tok.kind != tokComma {
							break
						}
						p.next()
					}
				}
				p.nodes[i].Args = args
				p.expect(tokRParen)
			}
		default:
			p.errorf("expected expression, found %s", p.tok)
			p.next()
			p.nodes[i].Text = "<error>"
		}
	}
	p.depth--
	p.nodes[i].End = int32(len(p.nodes) - p.base)
}
