package lang

import "fmt"

// tokKind enumerates the token kinds of the specification language.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokAtom   // 'x
	tokLParen // (
	tokRParen // )
	tokComma  // ,
	tokColon  // :
	tokArrow  // ->
	tokEquals // =
	tokLBrack // [
	tokRBrack // ]

	// Keywords.
	tokSpec
	tokEnd
	tokUses
	tokParam
	tokAtoms
	tokSorts
	tokOps
	tokVars
	tokAxioms
	tokIf
	tokThen
	tokElse
	tokError
	tokNative
)

var kindNames = map[tokKind]string{
	tokEOF:    "end of input",
	tokIdent:  "identifier",
	tokAtom:   "atom literal",
	tokLParen: "'('",
	tokRParen: "')'",
	tokComma:  "','",
	tokColon:  "':'",
	tokArrow:  "'->'",
	tokEquals: "'='",
	tokLBrack: "'['",
	tokRBrack: "']'",
	tokSpec:   "'spec'",
	tokEnd:    "'end'",
	tokUses:   "'uses'",
	tokParam:  "'param'",
	tokAtoms:  "'atoms'",
	tokSorts:  "'sorts'",
	tokOps:    "'ops'",
	tokVars:   "'vars'",
	tokAxioms: "'axioms'",
	tokIf:     "'if'",
	tokThen:   "'then'",
	tokElse:   "'else'",
	tokError:  "'error'",
	tokNative: "'native'",
}

func (k tokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("tokKind(%d)", int(k))
}

// keyword returns the token kind of a reserved word. A switch, not a
// map: the lexer asks about every identifier it scans.
func keyword(text string) (tokKind, bool) {
	switch text {
	case "spec":
		return tokSpec, true
	case "end":
		return tokEnd, true
	case "uses":
		return tokUses, true
	case "param", "params":
		return tokParam, true
	case "atoms":
		return tokAtoms, true
	case "sorts", "sort":
		return tokSorts, true
	case "ops":
		return tokOps, true
	case "vars", "var":
		return tokVars, true
	case "axioms":
		return tokAxioms, true
	case "if":
		return tokIf, true
	case "then":
		return tokThen, true
	case "else":
		return tokElse, true
	case "error":
		return tokError, true
	case "native":
		return tokNative, true
	}
	return 0, false
}

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.text)
	case tokAtom:
		return fmt.Sprintf("atom '%s", t.text)
	default:
		return t.kind.String()
	}
}
