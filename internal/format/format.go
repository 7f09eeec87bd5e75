// Package format renders parsed specifications back into canonical
// surface syntax. The canonical form is stable (format ∘ parse ∘ format =
// format), aligns operation declarations in columns, and preserves axiom
// labels — so specifications can be machine-edited (e.g. by mutation
// tests) and round-tripped without drift.
package format

import (
	"fmt"
	"strings"

	"algspec/internal/ast"
	"algspec/internal/lang"
)

// Source formats specification source text into canonical form. It
// returns an error if the source does not parse.
func Source(src string) (string, error) {
	f, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	return File(f), nil
}

// File formats a parsed file.
func File(f *ast.File) string {
	var b strings.Builder
	for i, sp := range f.Specs {
		if i > 0 {
			b.WriteByte('\n')
		}
		writeSpec(&b, sp)
	}
	return b.String()
}

func writeSpec(b *strings.Builder, sp *ast.Spec) {
	fmt.Fprintf(b, "spec %s\n", sp.Name)
	if len(sp.Uses) > 0 {
		names := make([]string, len(sp.Uses))
		for i, u := range sp.Uses {
			names[i] = u.Name
		}
		fmt.Fprintf(b, "  uses %s\n", strings.Join(names, ", "))
	}
	writeSortDecls(b, "param", sp.Params)
	writeSortDecls(b, "atoms", sp.Atoms)
	writeSortDecls(b, "sorts", sp.Sorts)

	if len(sp.Ops) > 0 {
		b.WriteString("\n  ops\n")
		writeOps(b, sp.Ops)
	}
	if len(sp.Vars) > 0 {
		b.WriteString("\n  vars\n")
		writeVars(b, sp.Vars)
	}
	if len(sp.Axioms) > 0 {
		b.WriteString("\n  axioms\n")
		writeAxioms(b, sp.Axioms)
	}
	b.WriteString("end\n")
}

func writeSortDecls(b *strings.Builder, keyword string, decls []ast.SortDecl) {
	if len(decls) == 0 {
		return
	}
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	fmt.Fprintf(b, "  %s %s\n", keyword, strings.Join(names, ", "))
}

// writeOps aligns names and arrows in columns.
func writeOps(b *strings.Builder, ops []*ast.OpDecl) {
	nameW, domW := 0, 0
	doms := make([]string, len(ops))
	for i, op := range ops {
		n := len(op.Name)
		if op.Native {
			n += len("native ")
		}
		if n > nameW {
			nameW = n
		}
		doms[i] = strings.Join(op.Domain, ", ")
		if len(doms[i]) > domW {
			domW = len(doms[i])
		}
	}
	for i, op := range ops {
		name := op.Name
		if op.Native {
			name = "native " + op.Name
		}
		fmt.Fprintf(b, "    %-*s : %-*s -> %s\n", nameW, name, domW, doms[i], op.Range)
	}
}

func writeVars(b *strings.Builder, vars []*ast.VarDecl) {
	// Group consecutive declarations of the same sort were already
	// grouped by the author; preserve each declaration line.
	nameW := 0
	lines := make([]string, len(vars))
	for i, v := range vars {
		lines[i] = strings.Join(v.Names, ", ")
		if len(lines[i]) > nameW {
			nameW = len(lines[i])
		}
	}
	for i, v := range vars {
		fmt.Fprintf(b, "    %-*s : %s\n", nameW, lines[i], v.Sort)
	}
}

func writeAxioms(b *strings.Builder, axioms []*ast.Axiom) {
	labelW := 0
	for _, ax := range axioms {
		if len(ax.Label) > labelW {
			labelW = len(ax.Label)
		}
	}
	for _, ax := range axioms {
		if labelW > 0 {
			label := ""
			if ax.Label != "" {
				label = "[" + ax.Label + "]"
			}
			fmt.Fprintf(b, "    %-*s %s = %s\n", labelW+2, label, Expr(ax.LHS), Expr(ax.RHS))
		} else {
			fmt.Fprintf(b, "    %s = %s\n", Expr(ax.LHS), Expr(ax.RHS))
		}
	}
}

// Expr formats one expression in canonical form: bare nullary calls,
// single spaces after commas, the conditional spelled out.
func Expr(e ast.Expr) string {
	if len(e) == 0 {
		return "<empty expression>"
	}
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

// writeExpr writes the subtree at node i of e.
func writeExpr(b *strings.Builder, e ast.Expr, i int32) {
	switch n := &e[i]; n.Kind {
	case ast.Call:
		b.WriteString(n.Text)
		if n.Args == 0 {
			return
		}
		b.WriteByte('(')
		for k, c := int32(0), i+1; k < n.Args; k, c = k+1, e[c].End {
			if k > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, e, c)
		}
		b.WriteByte(')')
	case ast.If:
		then := e[i+1].End
		b.WriteString("if ")
		writeExpr(b, e, i+1)
		b.WriteString(" then ")
		writeExpr(b, e, then)
		b.WriteString(" else ")
		writeExpr(b, e, e[then].End)
	case ast.Atom:
		b.WriteByte('\'')
		b.WriteString(n.Text)
		if n.Anno != "" {
			b.WriteByte(':')
			b.WriteString(n.Anno)
		}
	case ast.Error:
		b.WriteString("error")
	default:
		fmt.Fprintf(b, "<expression kind %d>", n.Kind)
	}
}
