package lang_test

import (
	"errors"
	"strings"
	"testing"

	"algspec/internal/lang"
	"algspec/internal/speclib"
)

// TestParseErrorPositions pins the line/column reporting of the parser:
// a malformed spec must point at the offending token, 1-based, so editor
// integration and the fuzz harness can rely on the coordinates.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		line, col int
		msgHas    string
		extraOK   bool // allow follow-on errors after the pinned first one
	}{
		{
			name: "keyword where identifier expected",
			src:  "spec Q\n  uses\n  ops\nend\n",
			line: 3, col: 3,
			msgHas: "expected identifier",
		},
		{
			name: "missing range sort",
			src:  "spec Q\n  ops\n    f : Q ->\nend\n",
			line: 4, col: 1,
			msgHas: "expected identifier, found 'end'",
		},
		{
			name: "unbalanced call in axiom",
			src:  "spec Q\n  uses Bool\n  vars x : Q\n  axioms\n    f(x = true\nend\n",
			line: 5, col: 9,
			msgHas:  "expected ')'",
			extraOK: true,
		},
		{
			name: "missing end",
			src:  "spec Q\n  uses Bool",
			line: 2, col: 12,
			msgHas: "missing 'end'",
		},
		{
			name: "unterminated axiom label",
			src:  "spec Q\n  axioms\n    [l1 f(x) = true\nend\n",
			line: 3, col: 9,
			msgHas:  "expected ']'",
			extraOK: true,
		},
		{
			name: "leading junk before spec",
			src:  "junk\nspec Q\nend\n",
			line: 1, col: 1,
			msgHas: "expected 'spec'",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := lang.Parse(tc.src)
			if err == nil {
				t.Fatal("malformed spec parsed without error")
			}
			list, ok := err.(lang.ErrorList)
			if !ok || len(list) == 0 {
				t.Fatalf("err = %v (%T), want non-empty lang.ErrorList", err, err)
			}
			if !tc.extraOK && len(list) != 1 {
				t.Errorf("got %d errors, want 1: %v", len(list), err)
			}
			first := list[0]
			if first.Line != tc.line || first.Col != tc.col {
				t.Errorf("first error at %d:%d, want %d:%d (%s)", first.Line, first.Col, tc.line, tc.col, first.Msg)
			}
			if !strings.Contains(first.Msg, tc.msgHas) {
				t.Errorf("message %q missing %q", first.Msg, tc.msgHas)
			}
		})
	}
}

// TestStrayTokenReportedOnce: a token no section accepts is reported
// once, and parsing resumes at the next section keyword. ListSymtabImpl
// without its axioms keyword puts every axiom in the vars section's
// way; the parser used to report each of their tokens in turn.
func TestStrayTokenReportedOnce(t *testing.T) {
	src := strings.Replace(speclib.ListSymtabImpl, "axioms", "", 1)
	_, err := lang.Parse(src)
	var el lang.ErrorList
	if !errors.As(err, &el) || len(el) != 1 {
		t.Fatalf("want one error, got %v", err)
	}
	if !strings.Contains(el[0].Msg, "unexpected '['") {
		t.Errorf("error = %v", el[0])
	}
}

// TestOneErrorPerPosition: recovery after a broken declaration or axiom
// trips over the same token again, and the parser reports the token
// once. A declaration cut short before 'end' used to report "expected
// ':'", "expected '->'" and "expected identifier" at one position.
func TestOneErrorPerPosition(t *testing.T) {
	for _, src := range []string{
		"spec Q\n  ops\n    f\nend\n",
		"spec Q\n  uses Bool\n  ops\n    f : -> Q\n  axioms\n    f\nend\n",
	} {
		_, err := lang.Parse(src)
		var el lang.ErrorList
		if !errors.As(err, &el) || len(el) == 0 {
			t.Fatalf("%q: want syntax errors, got %v", src, err)
		}
		for i := 1; i < len(el); i++ {
			if el[i].Line == el[i-1].Line && el[i].Col == el[i-1].Col {
				t.Errorf("%q: errors %d and %d both at %d:%d:\n%v", src, i, i+1, el[i].Line, el[i].Col, err)
			}
		}
	}
}
