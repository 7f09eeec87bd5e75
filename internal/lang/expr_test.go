package lang_test

import (
	"testing"

	"algspec/internal/ast"
	"algspec/internal/format"
	"algspec/internal/lang"
)

func TestParseExpr(t *testing.T) {
	e, err := lang.ParseExpr("front(add(new, 'x))")
	if err != nil {
		t.Fatal(err)
	}
	if s := format.Expr(e); s != "front(add(new, 'x))" {
		t.Errorf("expr = %s", s)
	}
	// Conditional with annotation.
	e2, err := lang.ParseExpr("if isEmpty?(q) then 'x:Item else front(q)")
	if err != nil {
		t.Fatal(err)
	}
	if s := format.Expr(e2); s != "if isEmpty?(q) then 'x:Item else front(q)" {
		t.Errorf("expr = %s", s)
	}
	// Nullary with parens.
	e3, err := lang.ParseExpr("new()")
	if err != nil {
		t.Fatal(err)
	}
	if !e3[0].Parens {
		t.Error("parens lost")
	}
	// Trailing garbage.
	if _, err := lang.ParseExpr("new) extra"); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := lang.ParseExpr(""); err == nil {
		t.Error("empty expr accepted")
	}
}

// TestAppendExprLayout pins the flat layout: prefix order, argument
// counts, subtree ends counted from the expression's root, positions,
// and a reused buffer.
func TestAppendExprLayout(t *testing.T) {
	buf, err := lang.AppendExpr(nil, "add(if p then new() else q, 'x:Item)")
	if err != nil {
		t.Fatal(err)
	}
	want := ast.Expr{
		{Kind: ast.Call, Parens: true, Args: 2, End: 6, Text: "add", Pos: ast.Pos{Line: 1, Col: 1}},
		{Kind: ast.If, Args: 3, End: 5, Pos: ast.Pos{Line: 1, Col: 5}},
		{Kind: ast.Call, End: 3, Text: "p", Pos: ast.Pos{Line: 1, Col: 8}},
		{Kind: ast.Call, Parens: true, End: 4, Text: "new", Pos: ast.Pos{Line: 1, Col: 15}},
		{Kind: ast.Call, End: 5, Text: "q", Pos: ast.Pos{Line: 1, Col: 26}},
		{Kind: ast.Atom, End: 6, Text: "x", Anno: "Item", Pos: ast.Pos{Line: 1, Col: 29}},
	}
	if len(buf) != len(want) {
		t.Fatalf("nodes = %+v", buf)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, buf[i], want[i])
		}
	}
	again, err := lang.AppendExpr(buf[:0], "error")
	if err != nil || len(again) != 1 || &again[0] != &buf[0] || again[0].Kind != ast.Error || again[0].End != 1 {
		t.Errorf("reused buffer: %+v, %v", again, err)
	}
	if _, err := lang.AppendExpr(buf[:0], "add(new"); err == nil {
		t.Error("AppendExpr accepted add(new")
	}
}

func TestAstStringRendering(t *testing.T) {
	e, err := lang.ParseExpr("if same?(id, idl) then attrs else retrieve(symtab, idl)")
	if err != nil {
		t.Fatal(err)
	}
	want := "if same?(id, idl) then attrs else retrieve(symtab, idl)"
	if s := format.Expr(e); s != want {
		t.Errorf("String = %q", s)
	}
	e2, _ := lang.ParseExpr("error")
	if s := format.Expr(e2); s != "error" {
		t.Errorf("String = %q", s)
	}
}
