// Package lang implements the lexer and parser of the specification
// language described in package ast. Parse turns source text into an
// *ast.File; ParseExpr parses a single expression, and AppendExpr does
// so into a reusable buffer (the request reader's entry). All three run
// one recovering grammar, which appends every expression flat, in
// prefix order, and reports every syntax error it finds.
package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Error is a positioned syntax error.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// ErrorList collects all syntax errors found in one parse.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	default:
		var b strings.Builder
		for i, e := range l {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString(e.Error())
		}
		return b.String()
	}
}

// lexer turns source text into tokens. It is a straightforward scanner
// with one token of lookahead provided by the parser.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
	errs ErrorList
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) errorf(line, col int, format string, args ...any) {
	lx.errs = append(lx.errs, &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

func (lx *lexer) peekRune() (rune, int) {
	if lx.pos >= len(lx.src) {
		return 0, 0
	}
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(lx.src[lx.pos:])
}

func (lx *lexer) advance(r rune, size int) {
	lx.pos += size
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
}

// isIdentStart/isIdentPart admit the paper's operation-name characters:
// IS_EMPTY?, IS.NEWSTACK?, enterblock'.
func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.' || r == '?' || r == '\''
}

// isAtomPart admits an atom spelling's characters: an identifier's
// without the quote and the question mark.
func isAtomPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

// identASCII and atomASCII tabulate isIdentPart and isAtomPart on
// single-byte runes, so the scanning loops decode only non-ASCII text.
var identASCII, atomASCII = func() (id, at [utf8.RuneSelf]bool) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		id[c], at[c] = isIdentPart(c), isAtomPart(c)
	}
	return id, at
}()

// scanWhile advances over the longest run of runes that part admits
// (ascii tabulates it on single-byte runes). The runs it scans never
// hold a newline.
func (lx *lexer) scanWhile(ascii *[utf8.RuneSelf]bool, part func(rune) bool) {
	for lx.pos < len(lx.src) {
		if c := lx.src[lx.pos]; c < utf8.RuneSelf {
			if !ascii[c] {
				return
			}
			lx.pos++
		} else {
			r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
			if !part(r) {
				return
			}
			lx.pos += size
		}
		lx.col++
	}
}

// next returns the next token, skipping whitespace and comments.
func (lx *lexer) next() token {
	for {
		r, size := lx.peekRune()
		if size == 0 {
			return token{kind: tokEOF, line: lx.line, col: lx.col}
		}
		switch r {
		case ' ', '\t', '\r':
			lx.pos++
			lx.col++
			continue
		case '\n':
			lx.advance(r, size)
			continue
		case '-':
			// Either a comment "--" or the arrow "->".
			if strings.HasPrefix(lx.src[lx.pos:], "--") {
				for {
					r2, s2 := lx.peekRune()
					if s2 == 0 || r2 == '\n' {
						break
					}
					lx.advance(r2, s2)
				}
				continue
			}
			if strings.HasPrefix(lx.src[lx.pos:], "->") {
				t := token{kind: tokArrow, text: "->", line: lx.line, col: lx.col}
				lx.advance('-', 1)
				lx.advance('>', 1)
				return t
			}
			lx.errorf(lx.line, lx.col, "unexpected character %q (expected '--' comment or '->')", r)
			lx.advance(r, size)
			continue
		case '(':
			return lx.single(tokLParen, r, size)
		case ')':
			return lx.single(tokRParen, r, size)
		case ',':
			return lx.single(tokComma, r, size)
		case ':':
			return lx.single(tokColon, r, size)
		case '=':
			return lx.single(tokEquals, r, size)
		case '[':
			return lx.single(tokLBrack, r, size)
		case ']':
			return lx.single(tokRBrack, r, size)
		case '\'':
			return lx.atom()
		}
		if isIdentStart(r) || unicode.IsDigit(r) {
			// Digit-initial tokens are legal identifiers: the language
			// has no numeric literals, and the paper numbers its axioms
			// ("[1] leaveblock(init) = error").
			return lx.ident()
		}
		lx.errorf(lx.line, lx.col, "unexpected character %q", r)
		lx.advance(r, size)
	}
}

func (lx *lexer) single(kind tokKind, r rune, size int) token {
	t := token{kind: kind, text: lx.src[lx.pos : lx.pos+size], line: lx.line, col: lx.col}
	lx.advance(r, size)
	return t
}

func (lx *lexer) ident() token {
	start := lx.pos
	line, col := lx.line, lx.col
	lx.scanWhile(&identASCII, isIdentPart)
	text := lx.src[start:lx.pos]
	if kind, ok := keyword(text); ok {
		return token{kind: kind, text: text, line: line, col: col}
	}
	return token{kind: tokIdent, text: text, line: line, col: col}
}

// atom scans 'spelling. The quote must be followed immediately by an
// identifier-start character; the spelling uses identifier characters
// minus the quote (so 'x:Sort annotations tokenize cleanly).
func (lx *lexer) atom() token {
	line, col := lx.line, lx.col
	lx.advance('\'', 1)
	r, size := lx.peekRune()
	if size == 0 || !(isIdentStart(r) || unicode.IsDigit(r)) {
		lx.errorf(line, col, "atom literal requires a spelling after ' (as in 'x)")
		return token{kind: tokAtom, text: "", line: line, col: col}
	}
	start := lx.pos
	lx.scanWhile(&atomASCII, isAtomPart)
	return token{kind: tokAtom, text: lx.src[start:lx.pos], line: line, col: col}
}
