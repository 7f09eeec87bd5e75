package lang

import (
	"strings"
	"testing"

	"algspec/internal/ast"
)

func lexAll(src string) []token {
	lx := newLexer(src)
	var out []token
	for {
		t := lx.next()
		out = append(out, t)
		if t.kind == tokEOF {
			return out
		}
	}
}

func kinds(ts []token) []tokKind {
	out := make([]tokKind, len(ts))
	for i, t := range ts {
		out[i] = t.kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	ts := lexAll("spec Queue ops add : Queue, Item -> Queue end")
	want := []tokKind{tokSpec, tokIdent, tokOps, tokIdent, tokColon,
		tokIdent, tokComma, tokIdent, tokArrow, tokIdent, tokEnd, tokEOF}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("kinds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexPaperNames(t *testing.T) {
	// The paper's spellings: IS_EMPTY?, IS.NEWSTACK?, add'.
	ts := lexAll("IS_EMPTY? IS.NEWSTACK? add' retrieve'")
	for i := 0; i < 4; i++ {
		if ts[i].kind != tokIdent {
			t.Errorf("token %d = %v", i, ts[i])
		}
	}
	if ts[0].text != "IS_EMPTY?" || ts[1].text != "IS.NEWSTACK?" || ts[2].text != "add'" {
		t.Errorf("texts = %q %q %q", ts[0].text, ts[1].text, ts[2].text)
	}
}

func TestLexAtoms(t *testing.T) {
	ts := lexAll("'x 'long_name 'x:Identifier")
	if ts[0].kind != tokAtom || ts[0].text != "x" {
		t.Errorf("atom 0 = %v", ts[0])
	}
	if ts[1].kind != tokAtom || ts[1].text != "long_name" {
		t.Errorf("atom 1 = %v", ts[1])
	}
	// 'x:Identifier lexes as atom, colon, ident.
	if ts[2].kind != tokAtom || ts[3].kind != tokColon || ts[4].kind != tokIdent {
		t.Errorf("annotated atom = %v %v %v", ts[2], ts[3], ts[4])
	}
}

func TestLexCommentsAndNumbers(t *testing.T) {
	ts := lexAll("a -- a comment -> ignored\nb 42")
	if len(ts) != 4 { // a, b, 42, EOF
		t.Fatalf("tokens = %v", ts)
	}
	if ts[1].text != "b" || ts[2].text != "42" || ts[2].kind != tokIdent {
		t.Errorf("tokens = %v", ts)
	}
}

func TestLexPositions(t *testing.T) {
	ts := lexAll("a\n  b")
	if ts[0].line != 1 || ts[0].col != 1 {
		t.Errorf("a at %d:%d", ts[0].line, ts[0].col)
	}
	if ts[1].line != 2 || ts[1].col != 3 {
		t.Errorf("b at %d:%d", ts[1].line, ts[1].col)
	}
}

func TestLexErrors(t *testing.T) {
	lx := newLexer("@ $")
	for lx.next().kind != tokEOF {
	}
	if len(lx.errs) != 2 {
		t.Errorf("errs = %v", lx.errs)
	}
	// Bare quote with no spelling.
	lx2 := newLexer("' ")
	lx2.next()
	if len(lx2.errs) == 0 {
		t.Error("bare quote accepted")
	}
}

const queueSrc = `
spec Queue
  uses Bool
  param Item

  ops
    new      : -> Queue
    add      : Queue, Item -> Queue
    front    : Queue -> Item
    isEmpty? : Queue -> Bool

  vars
    q : Queue
    i : Item

  axioms
    [1] isEmpty?(new) = true
    [2] isEmpty?(add(q, i)) = false
    [3] front(new) = error
    [4] front(add(q, i)) = if isEmpty?(q) then i else front(q)
end
`

func TestParseSpec(t *testing.T) {
	f, err := Parse(queueSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Specs) != 1 {
		t.Fatalf("specs = %d", len(f.Specs))
	}
	sp := f.Specs[0]
	if sp.Name != "Queue" {
		t.Errorf("name = %q", sp.Name)
	}
	if len(sp.Uses) != 1 || sp.Uses[0].Name != "Bool" {
		t.Errorf("uses = %v", sp.Uses)
	}
	if len(sp.Params) != 1 || sp.Params[0].Name != "Item" {
		t.Errorf("params = %v", sp.Params)
	}
	if len(sp.Ops) != 4 {
		t.Fatalf("ops = %d", len(sp.Ops))
	}
	add := sp.Ops[1]
	if add.Name != "add" || len(add.Domain) != 2 || add.Range != "Queue" {
		t.Errorf("add = %+v", add)
	}
	if len(sp.Vars) != 2 {
		t.Errorf("vars = %d", len(sp.Vars))
	}
	if len(sp.Axioms) != 4 {
		t.Fatalf("axioms = %d", len(sp.Axioms))
	}
	if sp.Axioms[0].Label != "1" {
		t.Errorf("label = %q", sp.Axioms[0].Label)
	}
	// Axiom 4's RHS is a conditional.
	if k := sp.Axioms[3].RHS[0].Kind; k != ast.If {
		t.Errorf("axiom 4 RHS kind = %d", k)
	}
	// Axiom 3's RHS is error.
	if k := sp.Axioms[2].RHS[0].Kind; k != ast.Error {
		t.Errorf("axiom 3 RHS kind = %d", k)
	}
}

func TestParseMultipleSpecs(t *testing.T) {
	src := "spec A ops c : -> A end\nspec B ops d : -> B end"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Specs) != 2 || f.Specs[0].Name != "A" || f.Specs[1].Name != "B" {
		t.Errorf("specs = %v", f.Specs)
	}
}

func TestParseNative(t *testing.T) {
	src := "spec Identifier uses Bool atoms Identifier ops native same? : Identifier, Identifier -> Bool end"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Specs[0].Ops[0].Native {
		t.Error("native flag lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"spec",                              // missing name
		"spec A ops c : -> A",               // missing end
		"spec A axioms c( = d end",          // broken expr
		"junk spec A end",                   // junk before spec
		"spec A ops c : -> end",             // missing range sort
		"spec A axioms [x c = d end",        // unclosed label
		"spec A axioms if a then b = c end", // incomplete if (missing else)
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseErrorsArePositioned(t *testing.T) {
	_, err := Parse("spec A\n  ops\n    c : ->\nend")
	if err == nil {
		t.Fatal("accepted")
	}
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if el[0].Line != 4 && el[0].Line != 3 {
		t.Errorf("error line = %d", el[0].Line)
	}
	if !strings.Contains(el.Error(), "expected") {
		t.Errorf("message = %q", el.Error())
	}
}

func TestParseRecoversAcrossSpecs(t *testing.T) {
	// An error in the first spec does not prevent seeing the second.
	src := "spec A ops ??? end\nspec B ops d : -> B end"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("accepted broken spec")
	}
	// The error list mentions the bad token but parsing continued (no
	// panic, and errors are finite).
	if el := err.(ErrorList); len(el) == 0 || len(el) > 20 {
		t.Errorf("errors = %d", len(el))
	}
}

func TestKeywordAliases(t *testing.T) {
	// "sort"/"sorts", "param"/"params", "var"/"vars" are all accepted.
	src := `
spec A
  params Item
  sort Aux
  ops
    c : Aux -> A
    k : -> Aux
  var x : Item
end
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sp := f.Specs[0]
	if len(sp.Params) != 1 || len(sp.Sorts) != 1 || len(sp.Vars) != 1 {
		t.Errorf("sections = %v %v %v", sp.Params, sp.Sorts, sp.Vars)
	}
}
